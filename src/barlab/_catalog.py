"""What the command line shows before it computes: the preset table and the run defaults.

This module imports nothing, so that listing, help and usage errors start
without numpy.  ``scenarios`` reads both from here, so each value lives in
one place.
"""

# Name and one-line description of every built-in loading program, in listing order.
PRESETS = {
    "monotone": "gap grows at unit rate over the whole horizon",
    "constant": "gap clamped at 80% of the jump threshold",
    "loading-unloading": "ramp to the midpoint, then back to zero",
    "high-unload": "overload to twice the threshold, unload but stay above it",
}
PRESET_NAMES = tuple(PRESETS)

# Default discretization of a run: spatial cells of the eps model and time steps.
CELLS = 64
STEPS = 400
