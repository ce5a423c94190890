"""Helpers that several test modules share and the package does not need."""

from archsurv.copulas import ArchimedeanCopula, theta_from_tau


def copula_from_tau(family: str, tau: float) -> ArchimedeanCopula:
    """The copula of a family at a given Kendall's tau."""
    return ArchimedeanCopula(family, theta_from_tau(family, tau))
