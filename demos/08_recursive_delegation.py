"""Recursive delegation: storing the syndrome with the same machinery.

Asymptotically each level shrinks the local key by h/(1-h) and the total
qubit bill converges to l / (1 - 2 h(beta0)); the ledger below shows that
regime with capacity-rate codes.  The package keeps no concrete chain,
because with every code the recipe can pick a second level keeps more
bits locally than it saves: each menu syndrome has at least 1,456 bits,
while l stays under 128.
"""

from tamperstore.params import ideal_recursion_accounting

###############################################################################
# The ideal ledger at beta0 = 0.05 for a megabit message.

accounting = ideal_recursion_accounting(0.05, 1e6, residual_threshold=1e3)
print("level  message_bits      qubits     syndrome_bits")
for row in accounting["levels"]:
    print(f"{row['level']:>5}  {row['message_bits']:>12.1f}  {row['qubits']:>10.1f}  "
          f"{row['syndrome_bits']:>13.1f}")
print(f"total qubits: {accounting['total_qubits']:.1f}")
print(f"geometric limit l/(1-2h): {accounting['limit_qubits']:.1f}")
print(f"residual local bits: {accounting['residual_bits']:.1f}")
