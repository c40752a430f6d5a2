"""Reference implementations the tests hold the fast paths equal to.

Each module keeps the plain, pre-optimisation form of one hot path —
readable, slow, and exercised only by tests — so that generated inputs
can require ``optimised == reference`` on every observable.
"""
