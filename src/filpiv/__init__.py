"""Self-similar binormal-flow filaments and the sigma-form of Painleve IV.

Subpackages: specfun (complex special functions), odeint (adaptive Taylor
series with dense output), flow (the 6-dim filament system), painleve (the
quadratic sigma equation and its direct integration), asympt (tail models,
fitting, connection formulas), zero_a (closed-form zero-axis solutions),
symmetric (odd/mixed branches), cli (command-line driver), selfcheck
(acceptance suite).
"""

__version__ = "0.1.0"
