"""Constants that the CLI's parser needs and the array modules share.

This module imports nothing, so building the parser imports no numpy;
metrics and protocol import these names from here.
"""

DEFAULT_NLL_EPSILON = 1e-7

# the largest radius or anchor accepted, in pixels: longer than the diagonal
# of any raster that fits in memory, and safe in int64 index arithmetic
MAX_RADIUS_PX = 2**31 - 1
