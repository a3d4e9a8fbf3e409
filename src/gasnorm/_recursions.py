"""Run-record flag left from the numba kernel.

The filter itself is ``filtering.filter_series``. perfbench's run record
still reads ``NUMBA_ACTIVE``; ROADMAP direction 8, the benchmark-only
change, deletes this module together with that field.
"""

NUMBA_ACTIVE = False
