"""Adam optimizer over a flat list of parameter arrays."""

import numpy as np

from .errors import DimensionError


class Adam:
    """Standard Adam with bias correction; eps sits outside the sqrt.

    Parameters are updated in place. Defaults are the reference constants
    (beta1=0.9, beta2=0.999, eps=1e-8).
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        if len(grads) != len(self.params):
            raise DimensionError(
                f"adam: {len(grads)} gradients for {len(self.params)} parameters"
            )
        for p, g in zip(self.params, grads):
            if p.shape != g.shape:
                raise DimensionError(f"adam: gradient shape {g.shape} != parameter shape {p.shape}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        # in place, in the operation order of
        #   m = beta1 * m + (1 - beta1) * g
        #   v = beta2 * v + (1 - beta2) * (g * g)
        #   p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            t = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += t
            np.multiply(g, g, out=t)
            t *= 1.0 - self.beta2
            v *= self.beta2
            v += t
            np.divide(v, bc2, out=t)
            np.sqrt(t, out=t)
            t += self.eps
            step = np.divide(m, bc1)
            step *= self.lr
            step /= t
            p -= step
