"""Binary field arithmetic and the truncated multiplicative hash.

Walks through GF(2^nu) basics, counts hash collisions exhaustively to
show two-universality, and round-trips the invertible extraction that
the protocol uses to randomise messages.
"""

import itertools

import numpy as np

from tamperstore import Bits, GF2Field, phi

###############################################################################
# An element of GF(2^8) is an 8-bit string.  Each degree has one reduction
# polynomial, so a string's length alone says which field it lives in;
# GF2Field(8) holds that polynomial and multiplies the strings' ints.

field = GF2Field(8)
print(f"GF(2^8) reduction polynomial: {field.modulus:#x}")

rng = np.random.default_rng(1)
a, b = Bits.random(8, rng), Bits.random(8, rng)
print(f"a = {a.value:#04x}, b = {b.value:#04x}")
print(f"a * b = {field.mul_int(a.value, b.value):#04x}")
print(f"a + b = a XOR b = {(a ^ b).value:#04x}")
print(f"a * a^-1 = {field.mul_int(a.value, field.inv_int(a.value)):#x}")

###############################################################################
# The hash phi(w, x, l) keeps the first l bits of w * x.  Over a uniform
# seed w (zero included) every distinct pair collides on exactly a 2^-l
# fraction of seeds: count them, no sampling needed.

for l in (1, 2):
    counts = []
    for x, xp in itertools.combinations(range(8), 2):
        hits = sum(
            phi(Bits(w, 3), Bits(x, 3), l) == phi(Bits(w, 3), Bits(xp, 3), l)
            for w in range(8)
        )
        counts.append(hits)
    print(f"l = {l}: collision count per pair = {set(counts)} out of 8 seeds "
          f"(2^-l fraction = {8 >> l})")

###############################################################################
# With a nonzero seed the full product is invertible, which is what lets
# the message owner undo the randomisation later.

w = field.random_nonzero(rng)
x = Bits.random(8, rng)
product = field.mul_int(w.value, x.value)
print(f"recovered x == x: {field.mul_int(field.inv_int(w.value), product) == x.value}")
