"""Quadrature states, decoherence channels, and the two inverse problems.

Walks the Gaussian toolbox end to end: build a pure squeezed state, push
it through loss and phase jitter, then recover the hidden parameters from
the observed dB pair alone.
"""

import numpy as np

from kerrsqueezer import (
    SqueezeObservation,
    apply_loss,
    dephase,
    infer_loss_only,
    infer_phase_noise,
    pure_squeezed,
    quadrature_variance,
    variance_to_db,
)

print("=== squeezed state through a lossy, jittery channel ===")
source = pure_squeezed(1.2)
print(f"source:    {source.squeeze_db:5.2f} dB squeezed / {source.antisqueeze_db:5.2f} dB anti")

after_loss = apply_loss(source, 0.66)
print(f"eta=0.66:  {after_loss.squeeze_db:5.2f} dB squeezed / {after_loss.antisqueeze_db:5.2f} dB anti")

after_jitter = dephase(after_loss, 0.17)
print(f"+0.17 rad jitter: {after_jitter.squeeze_db:5.2f} dB / {after_jitter.antisqueeze_db:5.2f} dB")

angles = np.linspace(0, np.pi, 7)
print("observed variance vs readout angle:")
for theta in angles:
    v_obs = quadrature_variance(after_jitter, theta)
    print(f"  theta = {theta:5.3f} rad -> V = {v_obs:6.4f} ({variance_to_db(v_obs):+6.2f} dB)")

print()
print("=== inverse problem 1: what efficiency explains (2.4, 7.5) dB alone? ===")
fit = infer_loss_only(SqueezeObservation(2.4, 7.5))
print(f"loss-only reading: eta = {fit.eta:.3f}, source r = {fit.r:.3f}")
print(f"(i.e. the pair is consistent with a {fit.eta*100:.0f}% detection efficiency)")

print()
print("=== inverse problem 2: jitter at an independently measured eta ===")
fit2 = infer_phase_noise(SqueezeObservation(2.4, 7.5), eta_known=0.66)
print(f"at eta = 0.66: r = {fit2.r:.4f}, phase-noise RMS = {fit2.sigma*1e3:.1f} mrad")
print(f"forward-model residual: {fit2.residual_db:.2e} dB")
