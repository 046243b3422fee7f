"""Output checks that do not trust the library.

Each check returns None when the output holds and a one-line reason when it
does not. The references here use plain NumPy (`@`, `np.maximum`, pairwise
comparison) rather than the library's pinned kernels, so they agree with it
to a stated tolerance, not bit for bit, except where the method itself
promises exact equality.
"""

import math

import numpy as np

# Library matmuls accumulate strictly in k order; BLAS does not. With unit-
# scale float64 operands of inner size <= 64 the two differ by a few ulp per
# layer; 1e-9 relative to the largest score is far above that and far below
# any change a wrong formula would make.
SCORE_RTOL = 1e-9
# Central difference with h = 1e-6 along a unit direction: truncation error is
# O(h^2) times the third derivative, round-off about ulp(loss) / h.
FD_STEP = 1e-6
FD_RTOL = 1e-5
GRAD_ERR_BOUND = 1e-4


def auc_pairwise(scores, labels):
    """P(out-of-distribution score > in-distribution score), ties count 1/2,
    over every pair; no ranks involved."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    out = scores[labels == -1]
    ins = scores[labels == 1]
    greater = int(np.count_nonzero(out[:, None] > ins[None, :]))
    ties = int(np.count_nonzero(out[:, None] == ins[None, :]))
    return (greater + 0.5 * ties) / (out.shape[0] * ins.shape[0])


def check_auc(reported, scores, labels):
    expect = auc_pairwise(scores, labels)
    if abs(reported - expect) > 1e-12:
        return f"reported AUC {reported!r} != pairwise AUC {expect!r}"
    return None


def check_close(got, expect, what, rtol=SCORE_RTOL):
    got = np.asarray(got)
    expect = np.asarray(expect)
    if got.shape != expect.shape:
        return f"{what}: shape {got.shape} != reference {expect.shape}"
    scale = max(1.0, float(np.max(np.abs(expect))))
    gap = float(np.max(np.abs(got - expect)))
    if not gap <= rtol * scale:
        return f"{what}: max gap {gap:.3e} to the NumPy reference exceeds {rtol:g} x {scale:.3g}"
    return None


def check_identical(got, expect, what):
    if not np.array_equal(np.asarray(got), np.asarray(expect)):
        return f"{what}: not bit-identical"
    return None


def check_nonnegative(scores, what):
    if not np.all(np.asarray(scores) >= 0.0):
        return f"{what}: negative squared distance"
    return None


def check_finite(values, what):
    if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
        return f"{what}: non-finite value"
    return None


def check_loss_decreased(losses):
    if not losses[-1] < losses[0]:
        return f"last epoch loss {losses[-1]!r} is not below the first {losses[0]!r}"
    return None


def check_total(what, measured, expected):
    if measured != expected:
        return f"{what}: traced total {measured} != {expected} computed from the config"
    return None


def check_grad_error(worst, what):
    if not worst <= GRAD_ERR_BOUND:
        return f"{what}: worst relative gradient error {worst:.3e} > {GRAD_ERR_BOUND:g}"
    return None


def encoder_scores(x, hidden, final_w, center):
    """One-class scores: ReLU trunk, bias-free linear map, squared distance."""
    a = x
    for w, b in hidden:
        a = np.maximum(a @ w + b, 0.0)
    z = a @ final_w
    return ((z - center) ** 2).sum(axis=1)


def adapt_scores(support, queries, trunk, layers, latent_dim):
    """Few-shot scores by the method's definition: trunk features, mean pooled
    support, three-layer inference net, posterior-mean final layer, center
    at the mean support latent, squared distance."""

    def feats(x):
        for w, b in trunk:
            x = np.maximum(x @ w + b, 0.0)
        return x

    h_s, h_q = feats(support), feats(queries)
    (v1, c1), (v2, c2), (v3, c3) = layers
    g = np.maximum(h_s.mean(axis=0) @ v1 + c1, 0.0)
    g = np.maximum(g @ v2 + c2, 0.0)
    out = g @ v3 + c3
    feat_dim = h_s.shape[1]
    w = out[: feat_dim * latent_dim].reshape(feat_dim, latent_dim)
    center = (h_s @ w).mean(axis=0)
    return ((h_q @ w - center) ** 2).sum(axis=1)


def check_directional_derivative(loss_at, grads, params, direction):
    """Analytic d/dt loss(params + t * direction) at t = 0 against a central
    difference. `loss_at(shift)` evaluates the loss with every parameter
    array p moved to p + shift * d (and restored afterwards)."""
    analytic = math.fsum(float(np.sum(g * d)) for g, d in zip(grads, direction))
    numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2.0 * FD_STEP)
    scale = max(abs(analytic), abs(numeric), 1e-8)
    if not abs(analytic - numeric) <= FD_RTOL * scale:
        return (
            f"directional derivative {analytic!r} disagrees with the central "
            f"difference {numeric!r}"
        )
    return None
