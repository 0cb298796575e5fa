"""Entropy accounting for a wildly non-uniform message source.

The running example: one message carries half the probability mass and
2^L - 1 others share the rest.  Its min-entropy is terrible (1 bit), yet
after prefix coding with random padding the padded string is nearly
uniform, so almost everything is extractable.
"""

import numpy as np

from tamperstore import (
    binary_entropy,
    example1_code,
    extractable_length,
    min_entropy,
    padded_law,
    renyi_entropy,
    shannon_entropy,
    smooth_renyi2,
)

L = 12
code = example1_code(L)
messages = code.law  # example1(L), the source the code was built for
padded = padded_law(code)

print(f"source with 2^{L} messages, one of probability 1/2")
print(f"  min-entropy          H_min = {min_entropy(messages):.6f}")
print(f"  collision entropy    H_2   = {renyi_entropy(messages, 2):.6f}")
print(f"  Shannon entropy      H     = {shannon_entropy(messages):.4f}")

print(f"after prefix coding + padding ({L + 1} bits):")
print(f"  min-entropy          H_min = {min_entropy(padded):.6f}"
      f"  (log2(2^L - 1) + 1 = {np.log2(2**L - 1) + 1:.6f})")
print(f"  collision entropy    H_2   = {renyi_entropy(padded, 2):.6f}")

###############################################################################
# Smoothing trims the largest masses; the capped distribution maximises
# collision entropy inside the sub-normalised vicinity.

for eta in (0.0, 0.01, 0.05):
    print(f"  H_2^({eta:.2f}) = {smooth_renyi2(padded, eta):.6f}")

###############################################################################
# The extractable length grows with the tolerated non-uniformity eps0.
# At desk-scale lengths the finite-size penalty 2 log(1/eps0) bites hard:
# small eps0 extracts nothing from a 13-bit string.

print("eps0        extractable bits")
for eps0 in (2.0**-8, 2.0**-6, 2.0**-4, 1 / 16, 2.0**-3, 2.0**-2):
    ell = extractable_length(padded, eps0)
    print(f"  {eps0:010.6f}  {ell}")

###############################################################################
# The binary entropy function and the usefulness threshold: delegation
# beats local storage only while 1 - 2 h(beta0) stays positive.

for beta0 in (0.01, 0.05, 0.11, 0.12):
    print(f"beta0 = {beta0:.2f}: 1 - 2 h = {1 - 2 * binary_entropy(beta0):+.4f}")
