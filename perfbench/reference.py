"""Fixed yardstick work that run.py times to follow the host's speed.

It imports what photonlab imports (numpy, scipy.special), then does the kinds
of work photonlab's calls do, in about the same proportions: direct mode
sums that stream 64-mode complex phase tables through matrix products on the
default BLAS threads, special functions over a large array like the 1D
transport, and an interpreted formatting loop like CSV emission. It runs no
photonlab code, so a change to photonlab leaves its time alone.
"""

import numpy as np
import scipy.special


def mode_sum(n: int, chunks: int) -> np.ndarray:
    x = np.linspace(-np.pi, np.pi, n, endpoint=False)
    coeffs = np.ones((64, 16), dtype=np.complex128)
    out = np.zeros((16, n ** 3), dtype=np.complex128)
    for c in range(chunks):
        phase = np.exp(1j * np.outer(np.linspace(0.5, 1.5, 64) + 0.01 * c, x))
        plane = (phase[:, :, None, None] * phase[:, None, :, None]
                 * phase[:, None, None, :]).reshape(64, -1)
        out += coeffs.T @ plane
    return out


mode_sum(32, 24)
mode_sum(48, 2)
z = np.linspace(-3.0, 3.0, 4_000_000)
rho = scipy.special.erf(z) * np.exp(-z * z)
text = ",".join(format(v, ".17g") for v in rho[:100_000])
