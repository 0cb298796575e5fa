"""One full delegated-storage session, honest and tampered.

Derives desk-scale parameters, stores a message drawn from the skewed
example source, inspects what lands on the server versus what stays
local, then retrieves twice: once untouched and once after flipping a
single ciphertext bit.
"""

from dataclasses import replace

import numpy as np

from tamperstore import ProtocolInstance, usefulness
from tamperstore.randomizer import example1_code

rng = np.random.default_rng(4)

###############################################################################
# Derive parameters for a noiseless channel at total security 0.05.
# The recipe picks the code, the trap count, and every sub-budget.

prefix = example1_code(12)
inst = ProtocolInstance.derive(epsilon=0.05, beta0=0.0, ell=4, prefix_code=prefix)
p = inst.params
print(f"code = {p.code_name}: n = {p.n}, kappa = {p.kappa}, traps r = {p.r}")
print(f"accepted trap rate beta = {p.beta:.4f}, slack nu = {p.nu:.4f}")
print(f"tag length lam = {p.lam}, extractor seed d = {p.d}")

###############################################################################
# Store: the server receives the classical transcript plus the qubits;
# the client keeps five short items and forgets everything else.

message = 2748
bundle, secrets = inst.store(message, rng)
print(f"server holds: w ({p.ell0} bits), u ({p.d} bits), c ({p.ell} bits), "
      f"theta ({p.lam} bits), {p.n + p.r} qubits")
print(f"client keeps: {secrets.storage_bits()} bits "
      f"(syndrome {secrets.s.length}, traps {secrets.v.length}, "
      f"remainder {secrets.m_nabla.length}, MAC key {secrets.mac_key.bit_size})")
print(f"usefulness at this message size: {usefulness(secrets, p.ell0):.2f} "
      "(negative: desk-scale codes are far from capacity)")

out = inst.retrieve(bundle, secrets, rng)
print(f"honest retrieval: omega = {out.omega}, message = {out.message} "
      f"(match: {out.message == message})")

###############################################################################
# Tamper with one ciphertext bit: the one-time tag catches it.

bundle2, secrets2 = inst.store(message, rng)
tampered = replace(bundle2, c=bundle2.c.flip(0))
out = inst.retrieve(tampered, secrets2, rng)
print(f"after a ciphertext bit flip: omega = {out.omega}, abort = {out.abort_reason}")

###############################################################################
# Tamper with the qubits instead: measuring them all in the standard
# basis disturbs half the traps on average.

from tamperstore.experiments import InterceptResend
from tamperstore.qsim import EveView

bundle3, secrets3 = inst.store(message, rng)
InterceptResend(policy="all-standard").apply(EveView(bundle3.register), {}, rng)
out = inst.retrieve(bundle3, secrets3, rng)
print(f"after measuring every qubit:  omega = {out.omega}, abort = {out.abort_reason}")
