"""Named Hypothesis profiles.

Every simulated run is a pure function of its inputs, so no test needs
a wall-clock deadline (a slow sandbox would only add flakes).
"""

from hypothesis import settings

#: Equality contracts (two paths, one answer): each example builds a
#: machine or two, so favour many small cases.
STANDARD_SETTINGS = settings(max_examples=100, deadline=None)

#: Bit-identity contracts that run a whole op sequence twice.  Fewer
#: examples, and derandomized so a failure names the same case on every
#: box.
DETERMINISM_SETTINGS = settings(max_examples=40, deadline=None,
                                derandomize=True)

#: Machine-level composition contracts: every example runs the same
#: cells three times (plain, instrumented, restored/forked), so a
#: handful — derandomized, as above.
COMPOSITION_SETTINGS = settings(max_examples=30, deadline=None,
                                derandomize=True)
