"""Cavity resonance scans: the symmetric linear peak, Kerr-skewed
profiles, bistability and hysteresis.

Reproduces the qualitative signature of cascaded self-phase modulation in
a scanned cavity: at the conversion maximum the resonance is a textbook
symmetric peak, at a conversion zero it leans over, and at high power the
up and down sweeps disagree (hysteresis).
"""

import math

import numpy as np

from kerrsqueezer import CavityParams, scan_profile

params = CavityParams(
    round_trip_length=0.838, coupler_transmission=0.01, round_trip_loss=0.0019
)
print(f"FSR = {params.fsr/1e6:.1f} MHz, finesse = {params.finesse:.0f}, "
      f"escape efficiency = {params.escape_efficiency:.3f}, "
      f"resonant buildup = {params.resonant_buildup:.0f}")

g_kerr = -(14.0**2) * 0.0093**2 / (2 * math.pi)  # rad/W at the first zero
fwhm = params.linewidth_phase_fwhm


def rising_detunings(p_in):
    """A sweep up over the skewed resonance; reversed, it is the sweep down."""
    span = 6 * fwhm + 1.6 * abs(g_kerr) * params.resonant_buildup * p_in
    return np.linspace(-span, span, 1501)


print("\n=== linear cavity (conversion maximum): symmetric Airy peak ===")
linear = scan_profile(params, 0.0088, rising_detunings(0.0088), 0.0)
print(f"asymmetry metric: {linear.asymmetry:.2e}  bistable: {linear.multi_branch}")

print("\n=== with the cascade phase (conversion zero): skewed peak ===")
print(" p_in (mW)  asymmetry  bistable")
for p_in in (2.2e-3, 4.4e-3, 8.8e-3, 17.6e-3, 35.2e-3, 70.4e-3):
    prof = scan_profile(params, p_in, rising_detunings(p_in), g_kerr)
    print(f"  {p_in*1e3:6.1f}    {prof.asymmetry:8.4f}   {prof.multi_branch}")

print("\n=== hysteresis at 70 mW ===")
rising = rising_detunings(0.0704)
falling = rising[::-1]
up = scan_profile(params, 0.0704, rising, g_kerr)
down = scan_profile(params, 0.0704, falling, g_kerr)
gap = np.max(np.abs(up.p_circ - down.p_circ[::-1]))
print(f"max |up - down| circulating power: {gap:.2f} W "
      f"(peak {up.p_circ.max():.2f} W)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(rising * 1e3, up.p_circ, label="sweep up")
    ax.plot(falling * 1e3, down.p_circ, "--", label="sweep down")
    ax.set_xlabel("round-trip detuning (mrad)")
    ax.set_ylabel("circulating power (W)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo04_hysteresis.png", dpi=120)
    print("wrote demo04_hysteresis.png")
except ImportError:
    pass
