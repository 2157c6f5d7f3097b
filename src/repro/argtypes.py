"""argparse types shared by every ``repro`` command group.

A bad count gets argparse's one-line ``error: argument --X: ...`` and
exit status 2, never a traceback or a silently accepted negative.
"""

import argparse


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def positive_int(text):
    """argparse type: an int >= 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text):
    """argparse type: an int >= 0."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value
