"""Reversible message randomisation: prefix code, padding, extraction.

Shows the compression stage on a skewed four-message source, then the
seeded multiplication that splits the padded string into a near-uniform
part for the server and a short remainder kept locally.
"""

import numpy as np

from tamperstore import Bits, DiscreteDistribution, GF2Field
from tamperstore.randomizer import (
    build_prefix_code,
    compress,
    decompress,
    derandomize,
    randomize,
)

rng = np.random.default_rng(3)

dist = DiscreteDistribution(np.arange(4), np.array([0.7, 0.15, 0.1, 0.05]))
code = build_prefix_code(dist)
print("Huffman codewords (transmission order):")
for message in range(4):
    print(f"  message {message}: {code.codewords[message].to_01()}")
print(f"padded length l0 = {code.max_len}, average = {code.average_length():.3f} bits")

###############################################################################
# compress pads every codeword to l0 with the caller's random bits (it keeps
# as many as the codeword leaves room for); decompress parses the unique
# codeword prefix and throws the padding away.


def pad(message):
    return compress(code.codeword(message), code.max_len, Bits.random(code.max_len, rng).value)


for message in (0, 3):
    for _ in range(3):
        padded = pad(message)
        assert decompress(padded, code) == message
        print(f"  {message} -> {padded.to_01()} -> {decompress(padded, code)}")

###############################################################################
# The seeded multiplication is a bijection: the first l bits go to the
# server inside the ciphertext, the rest is the locally kept remainder.

l0, ell = code.max_len, 2
field = GF2Field(l0)
w = field.random_nonzero(rng)
padded = pad(1)
out = randomize(padded, w, ell)
print(f"seed w = {w.value:#x}")
print(f"m       = {out.m.to_01()}   (length {ell}, goes into the ciphertext)")
print(f"m_nabla = {out.m_nabla.to_01()}   (length {l0 - ell}, stays local)")
restored = derandomize(out.m, out.m_nabla, w)
print(f"derandomize == padded: {restored == padded}")

###############################################################################
# A frequency check under the true message prior.  At this toy size the
# extractable length is actually zero, so taking l = 2 anyway leaves a
# visible bias; the leftover-hash guarantee only kicks in once the padded
# string carries enough collision entropy over the budgeted slack.

counts = np.zeros(1 << ell)
trials = 20_000
for _ in range(trials):
    message = int(dist.sample(rng))
    padded = pad(message)
    w = field.random_nonzero(rng)
    counts[randomize(padded, w, ell).m.value] += 1
print("empirical distribution of m:", np.array2string(counts / trials, precision=4))
