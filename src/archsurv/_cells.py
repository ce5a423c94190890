"""The package's one cell budget, and the layout of "suffix" cells: the
self-consistency grid rows at or after a censored onset, and the terminal
atoms after an alive record's censoring time."""

import numpy as np

# entries of one vectorised pass, 512 kB per float array (its temporaries
# are a few such): a sweep's chunk of cells, a likelihood chunk's (onset x
# cell) entries, a concordance grid block, a prediction chunk
CELLS = 2**16


def chunks(sizes):
    """Slices of consecutive items whose sizes total at most CELLS; an item
    larger than that is a chunk of its own."""
    ends = np.cumsum(np.concatenate(([0], sizes)))  # the sizes before each item
    lo = 0
    while lo < ends.size - 1:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + CELLS, "right")) - 1)
        yield slice(lo, hi)
        lo = hi


def suffix(lens):
    """(segment, position) of every cell of segments `lens` long, laid out
    flat, segment by segment."""
    seg = np.repeat(np.arange(len(lens)), lens)
    return seg, np.arange(seg.size) - np.repeat(np.cumsum(lens) - lens, lens)
