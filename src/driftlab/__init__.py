"""driftlab: a numerical laboratory for radially symmetric advection-diffusion.

Simulates u_t = Lap(u) - <(x/|x|) psi(|x|), grad u> in radial reduction,
classifies drift profiles into lift-off vs. decay by their averaged growth,
tracks the exponentially weighted mass functional that certifies either
behavior, and validates everything against closed-form solutions.
"""
