"""The up/down cascade: back-conversion, the mid-crystal mirror picture,
and the intensity-dependent phase it leaves behind.

At a conversion zero no harmonic light leaves the crystal, yet halfway
through a finite fraction is converted; the round trip up and back down
imprints a power-dependent phase on the fundamental, i.e. an effective
Kerr nonlinearity.
"""

import math

import numpy as np

from kerrsqueezer import extract_cascade_result

LENGTH = 0.0093
KAPPA = 14.0

print("=== at the first conversion zero (delta_k * L = 2 pi) ===")
dk = 2 * math.pi / LENGTH
for p in (0.5, 1.0, 2.0):
    res = extract_cascade_result(p, dk, KAPPA, LENGTH)
    # The mirror picture's reflectivity: what the first half of the crystal converts.
    r1 = extract_cascade_result(p, dk, KAPPA, LENGTH / 2).residual_conversion
    print(
        f"p = {p:3.1f} W: mid-crystal converted fraction = {r1*100:6.3f}%  "
        f"end-of-crystal = {res.residual_conversion*100:8.5f}%  "
        f"nonlinear phase = {res.nl_phase*1e3:+7.3f} mrad"
    )
print("-> conversion at the center, none at the exit, and a phase that doubles with power")

print("\n=== analytic cascade formula vs the exact solution ===")
print(" delta_k*L  exact phase    analytic     rel. diff")
mults = np.array([2.0, 2.5, 3.0, 4.0, 6.0])
# One batched call for all mismatches: array in, array out.
phases = extract_cascade_result(0.2, mults * math.pi / LENGTH, KAPPA, LENGTH).nl_phase
for mult, exact in zip(mults, phases):
    x = mult * math.pi  # delta_k * L; the cascading formula at 0.2 W:
    formula = -(KAPPA**2 * 0.2 * LENGTH**2 / x) * (1.0 - math.sin(x) / x)
    print(
        f"  {mult:3.1f} pi   {exact*1e3:+9.4f} mrad {formula*1e3:+9.4f} mrad"
        f"   {abs(exact-formula)/abs(formula)*100:6.2f}%"
    )

print("\n=== phase flips sign across the phase-matching point ===")
for mult in (-2.0, 2.0):
    dk = mult * math.pi / LENGTH
    phase = extract_cascade_result(0.2, dk, KAPPA, LENGTH).nl_phase
    print(f"  delta_k*L = {mult:+.0f} pi -> {phase*1e3:+7.3f} mrad")

print("\n=== phase-matched crystal: depletion instead of phase ===")
res = extract_cascade_result(0.5, 0.0, KAPPA, LENGTH)
print(f"  converted fraction {res.residual_conversion*100:.2f}%, phase {res.nl_phase:.2e} rad")
