"""Shapley attributions for single predictions.

Two model-agnostic estimators share one coalition-value function.
``exact_shapley`` enumerates every feature subset and applies the
combinatorial weights directly; ``kernel_shap`` fits the additive surrogate

    g(z') = phi_0 + sum_j phi_j z'_j

by weighted least squares over sampled coalitions, with the empty and full
coalitions pinned as hard constraints so phi_0 + sum(phi) always equals the
model output at the explained instance. Hidden features are marginalized by
replacing them with background rows and averaging (interventional
expectation). ``tree_shap`` computes the same interventional values of a
forest exactly, in closed form over its leaf paths, without evaluating it on
any coalition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from . import _blocks, _json, multilabel
from .forest import _as_int, leaf_paths

ENUMERATION_CAP = 16  # exact enumeration and budget="full" refuse beyond this
DEFAULT_BUDGET_EXTRA = 2048  # default kernel budget is 2*M + this

EXPLANATION_FILE_KEYS = {"instance", "label", "base_value", "fx", "phi"}

ESTIMATORS = ("exact", "kernel", "tree")


class EstimationError(RuntimeError):
    """The kernel regression system could not be solved."""


@dataclass(frozen=True)
class ExplainTarget:
    """A deterministic prediction function over width-M vectors.

    ``f`` is evaluated in batches: it takes an (n, M) matrix and returns an
    (n,) vector for one output, or an (n, L) matrix for L outputs (such as L
    labels of one multi-label model). The estimators explain all L outputs
    from one pass over the coalitions.
    """

    f: Callable[[np.ndarray], np.ndarray]
    n_features: int


@dataclass
class Explanation:
    """Base value plus per-feature attributions for one (instance, label) pair."""

    base_value: float
    phi: np.ndarray
    fx: float
    feature_values: np.ndarray
    instance: int | None = None
    label: int | None = None
    feature_names: list[str] | None = None

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.feature_values = np.asarray(self.feature_values, dtype=np.float64)
        if self.phi.shape != self.feature_values.shape or self.phi.ndim != 1:
            raise ValueError("phi and feature_values must be equal-length vectors")

    @property
    def n_features(self) -> int:
        return self.phi.shape[0]

    def local_accuracy_gap(self) -> float:
        """|phi_0 + sum(phi) - f(x)|; at most 1e-6 by construction."""
        return abs(self.base_value + float(self.phi.sum()) - self.fx)

    def names(self) -> list[str]:
        if self.feature_names is not None:
            return list(self.feature_names)
        return [f"f{i}" for i in range(self.n_features)]


def _check_inputs(target: ExplainTarget, x, background):
    x = np.asarray(x, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if background.ndim == 1:
        background = background[None, :]
    if x.ndim != 1 or x.shape[0] != target.n_features:
        raise ValueError(f"instance width {x.shape} does not match target "
                         f"width {target.n_features}")
    if background.shape[0] < 1 or background.shape[1] != target.n_features:
        raise ValueError("background must be a non-empty matrix of target width")
    return x, background


def _at_instance(target, x):
    """f(x) as L values, and whether f is 1-D (one output)."""
    out = np.asarray(target.f(x[None, :]), dtype=np.float64)
    return out.reshape(-1), out.ndim == 1


def _coalition_values(target, x, masks, background, n_outputs):
    """Mean model output over background-completed rows: (n_masks, L).

    Masks run in blocks within the byte budget: per mask, the B synthesized
    rows of width M and the target's (B, L) output with its transposed copy.
    Each mean runs along a contiguous axis of length B, so it sums in the
    same order whatever L is and however the masks are blocked.
    """
    B, M = background.shape
    parts = []
    for rows in _blocks.row_slices(masks.shape[0], 8 * B * (M + 2 * n_outputs)):
        block = masks[rows]
        synth = np.where(block[:, None, :], x[None, None, :], background[None, :, :])
        out = np.asarray(target.f(synth.reshape(-1, M)), dtype=np.float64)
        out = out.reshape(block.shape[0], B, -1)
        parts.append(np.ascontiguousarray(out.transpose(0, 2, 1)).mean(axis=-1))
    return np.concatenate(parts)


def _base_and_fx(target, x, background):
    """phi_0 (the empty coalition's value), f(x), and whether f is 1-D."""
    fx, single = _at_instance(target, x)
    M = target.n_features
    base = _coalition_values(target, x, np.zeros((1, M), dtype=bool), background,
                             len(fx))[0]
    return base, fx, single


def _explanations(base, phi, fx, x, single, instance, label):
    """One Explanation per output row of ``phi``; the only one for a 1-D target."""
    expls = [Explanation(base_value=float(base[j]), phi=phi[j], fx=float(fx[j]),
                         feature_values=x.copy(), instance=instance, label=label)
             for j in range(len(fx))]
    return expls[0] if single else expls


def eval_coalition(target: ExplainTarget, x, mask, background) -> float:
    """Model output with masked-in features from x and the rest marginalized.

    The full mask short-circuits to f(x) so it is exact, not an average of
    identical terms.
    """
    x, background = _check_inputs(target, x, background)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (target.n_features,):
        raise ValueError("mask width does not match target width")
    if mask.all():
        return _at_instance(target, x)[0].item()
    # One mask is one block whatever the output width; .item() wants one output.
    return _coalition_values(target, x, mask[None, :], background, 1).item()


def exact_shapley(target: ExplainTarget, x, background,
                  instance=None, label=None):
    """Attributions by full subset enumeration (the combinatorial definition).

    phi_i sums, over every coalition S not containing i, the weight
    |S|! (M-|S|-1)! / M! times the value gained by adding i to S. Capped at
    M <= 16 features. Returns one Explanation for a 1-D target, else a list
    with one per output column.
    """
    x, background = _check_inputs(target, x, background)
    M = target.n_features
    if M > ENUMERATION_CAP:
        raise ValueError(f"exact enumeration capped at {ENUMERATION_CAP} features, "
                         f"target has {M}")
    n_masks = 1 << M
    ints = np.arange(n_masks, dtype=np.int64)
    bits = ((ints[:, None] >> np.arange(M)) & 1).astype(bool)
    fx, single = _at_instance(target, x)
    values = np.ascontiguousarray(
        _coalition_values(target, x, bits, background, len(fx)).T)
    values[:, -1] = fx  # full coalition is exactly f(x)
    base = values[:, 0].copy()

    size_weight = np.array(
        [math.factorial(s) * math.factorial(M - 1 - s) / math.factorial(M)
         for s in range(M)]
    )
    popcount = bits.sum(axis=1)
    phi = np.empty((values.shape[0], M), dtype=np.float64)
    for i in range(M):
        without = ints[(ints >> i) & 1 == 0]
        # take() keeps rows contiguous, so each row sums as a 1-D target's would
        gains = values.take(without | (1 << i), axis=1) - values.take(without, axis=1)
        phi[:, i] = np.sum(size_weight[popcount[without]] * gains, axis=1)
    return _explanations(base, phi, fx, x, single, instance, label)


def kernel_weight(M: int, z: int) -> float:
    """Shapley kernel weight for a proper coalition of size z out of M."""
    if not 1 <= z <= M - 1:
        raise ValueError(f"coalition size must be in [1, M-1], got z={z} for M={M}; "
                         "empty and full coalitions are hard constraints")
    return (M - 1) / (math.comb(M, z) * z * (M - z))


def _size_order(M: int):
    """Coalition sizes from the extremes inward: 1, M-1, 2, M-2, ..."""
    for d in range(1, (M - 1) // 2 + 1):
        yield d
        yield M - d
    if M % 2 == 0:
        yield M // 2


def _sample_coalitions(M: int, budget: int, rng: np.random.Generator):
    """Coalition masks and kernel weights under the extremes-inward policy.

    Size classes that fit in the remaining budget are enumerated exhaustively;
    the first class that does not fit is sampled uniformly without
    replacement, its per-coalition weight scaled so the class keeps its total
    kernel mass, and sampling stops there.
    """
    masks = []
    weights = []
    remaining = budget
    for z in _size_order(M):
        if remaining <= 0:
            break
        n_class = math.comb(M, z)
        w = kernel_weight(M, z)
        if n_class <= remaining:
            for combo in itertools.combinations(range(M), z):
                row = np.zeros(M, dtype=bool)
                row[list(combo)] = True
                masks.append(row)
                weights.append(w)
            remaining -= n_class
            continue
        if n_class <= 200_000:
            combos = list(itertools.combinations(range(M), z))
            picks = rng.choice(n_class, size=remaining, replace=False)
            chosen = [combos[i] for i in np.sort(picks)]
        else:
            seen = set()
            attempts = 0
            while len(seen) < remaining and attempts < 50 * remaining:
                combo = tuple(sorted(rng.choice(M, size=z, replace=False).tolist()))
                seen.add(combo)
                attempts += 1
            chosen = sorted(seen)
        scaled = w * (n_class / len(chosen))
        for combo in chosen:
            row = np.zeros(M, dtype=bool)
            row[list(combo)] = True
            masks.append(row)
            weights.append(scaled)
        remaining = 0
    return np.array(masks, dtype=bool), np.array(weights, dtype=np.float64)


def solve_weighted_ls(design: np.ndarray, weights: np.ndarray,
                      responses: np.ndarray) -> np.ndarray:
    """Minimize sum_i w_i (r_i - (A c)_i)^2 via the normal equations.

    The Gram matrix is factorized with a symmetric positive-definite
    (Cholesky) factorization; a failed factorization signals rank deficiency.
    ``responses`` is (n,) or (n, L); an (n, L) matrix is solved column by
    column against the one factorization, giving (k, L) coefficients.
    """
    A = np.asarray(design, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    r = np.asarray(responses, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise EstimationError(
            f"system has {A.shape[0]} rows for {A.shape[1]} coefficients"
        )
    if w.shape != (A.shape[0],) or (w <= 0).any():
        raise ValueError("weights must be positive, one per row")
    Aw = A * w[:, None]
    gram = A.T @ Aw
    rhs = Aw.T @ r
    try:
        factor = scipy.linalg.cho_factor(gram)
    except scipy.linalg.LinAlgError as err:
        raise EstimationError(f"rank-deficient weighted least-squares system: {err}")
    return scipy.linalg.cho_solve(factor, rhs)


def _coalition_budget(budget, M: int) -> int:
    """The number of proper coalitions ``kernel_shap`` evaluates for ``budget``."""
    total_proper = (1 << M) - 2
    if budget is None:
        return min(2 * M + DEFAULT_BUDGET_EXTRA, total_proper)
    if budget == "full":
        if M > ENUMERATION_CAP:
            raise ValueError(f'budget="full" is capped at {ENUMERATION_CAP} features, '
                             f"target has {M}")
        return total_proper
    n_budget = _as_int("budget", budget, 'an integer or "full"')
    if n_budget < 2:
        raise ValueError("budget must be at least 2 coalition evaluations")
    return min(n_budget, total_proper)


def kernel_shap(target: ExplainTarget, x, background, budget=None, seed: int = 0,
                instance=None, label=None):
    """Attributions from the kernel-weighted surrogate regression.

    ``budget`` counts proper-coalition evaluations: an integer >= 2, or
    ``"full"`` for all 2^M - 2 of them (M <= 16), or None for the default
    2*M + 2048. The constraints g(empty) = phi_0 and g(full) = f(x) are
    eliminated by substitution, so local accuracy holds by construction.
    Deterministic for a fixed seed. Returns one Explanation for a 1-D target,
    else a list with one per output column; all outputs share the coalitions
    and one weighted least-squares factorization.
    """
    x, background = _check_inputs(target, x, background)
    M = target.n_features
    n_budget = _coalition_budget(budget, M)
    base, fx, single = _base_and_fx(target, x, background)
    if M == 1:
        # Both constraints pin the single attribution; nothing to regress.
        return _explanations(base, (fx - base)[:, None], fx, x, single, instance, label)

    rng = np.random.default_rng(seed)
    masks, weights = _sample_coalitions(M, n_budget, rng)
    values = _coalition_values(target, x, masks, background, len(fx))

    # Substitute phi_e = (fx - base) - sum(other phi) to enforce g(full) = fx.
    Z = masks.astype(np.float64)
    z_e = Z[:, M - 1]
    design = Z[:, : M - 1] - z_e[:, None]
    responses = values - base - z_e[:, None] * (fx - base)
    coef = solve_weighted_ls(design, weights, responses).T  # (L, M - 1)
    phi = np.column_stack([coef, (fx - base) - coef.sum(axis=1)])
    return _explanations(base, phi, fx, x, single, instance, label)


def _path_weights(depth: int) -> np.ndarray:
    """w[a, b] = a! b! / (a + b + 1)! for a, b in 0..depth."""
    return np.array([[1.0 / ((a + b + 1) * math.comb(a + b, a))
                      for b in range(depth + 1)] for a in range(depth + 1)])


def _within(values, lower, upper):
    inside = lower < values
    inside &= values <= upper
    return inside


def _columns(keep, feature, lower, upper):
    """Per leaf (row), the path columns where ``keep`` holds, moved to the
    front and cut to the widest row, as (columns, leaves) arrays plus the
    mask of real cells; the other cells are padding (feature 0, bounds -inf
    and inf), which every finite value meets."""
    width = int(keep.sum(axis=1).max(initial=0))
    order = np.argsort(~keep, axis=1, kind="stable")[:, :width]
    held = np.take_along_axis(keep, order, axis=1)

    def pick(a, fill):
        return np.ascontiguousarray(
            np.where(held, np.take_along_axis(a, order, axis=1), fill).T)

    return pick(feature, 0), pick(lower, -np.inf), pick(upper, np.inf), held.T


def tree_shap(forests, x, background) -> np.ndarray:
    """Exact interventional Shapley values of each forest's output at ``x``.

    Returns a (len(forests), M) matrix; row j explains ``forests[j]`` with
    hidden features drawn from the background rows, the value function
    ``exact_shapley`` and ``kernel_shap`` evaluate. A forest's output is the
    mean of its trees' leaf values, so its Shapley values are the mean, over
    trees, leaves and background rows r, of those of the game "the
    synthesized row reaches this leaf" times the leaf value v. Each feature
    on the leaf's path is x-only (x meets the path's conditions on it and r
    does not), r-only (the reverse), both, or neither; the leaf is dead (no
    coalition reaches it) when some feature is neither. Otherwise, with X
    and R the x-only and r-only sets, a coalition reaches the leaf exactly
    when it holds X and none of R, so each x-only feature gains
    v (|X|-1)! |R|! / (|X|+|R|)! and each r-only one loses
    v |X|! (|R|-1)! / (|X|+|R|)! (Lundberg et al. 2020, arXiv 1905.04610).

    The path features x meets (the x side) are x-only where r misses them;
    those x misses (the r side) are all r-only on a live leaf, and the leaf
    is live exactly when r meets every one of them. Work runs in
    (background, path features, leaves) blocks, cut along the background rows
    so each stays within the byte budget of ``_blocks``.
    """
    x = np.asarray(x, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    M = x.shape[0]
    trees = [tree for forest in forests for tree in forest.trees]
    n_trees = [len(forest.trees) for forest in forests]
    tree, value, feature, lower, upper = leaf_paths(trees)
    x_ok = _within(x[feature], lower, upper)  # true on padding (feature -1)
    x_feat, x_lower, x_upper, _ = _columns(x_ok & (feature >= 0), feature, lower, upper)
    r_feat, r_lower, r_upper, r_held = _columns(~x_ok, feature, lower, upper)
    n_r = r_held.sum(axis=0)
    weights = _path_weights(x_feat.shape[0] + r_feat.shape[0])
    x_gain = np.zeros(x_feat.shape)
    r_loss = np.zeros(value.shape[0])
    # 16 bytes per (row, path feature, leaf) cell: the float64 gather beside
    # the boolean masks.
    cells = x_feat.size + r_feat.size
    for rows in _blocks.row_slices(background.shape[0], 16 * cells):
        block = background[rows]
        live = _within(np.take(block, r_feat, axis=1), r_lower, r_upper).all(axis=1)
        miss = ~_within(np.take(block, x_feat, axis=1), x_lower, x_upper)
        n_x = miss.sum(axis=1)
        # An index of -1 (no x-only or no r-only feature) reads a real entry
        # that nothing uses: no cell misses, or the leaf has no r side.
        w_x = np.where(live, weights[n_x - 1, n_r], 0.0)
        x_gain += np.einsum("bdk,bk->dk", miss, w_x)
        r_loss += np.where(live, weights[n_x, n_r - 1], 0.0).sum(axis=0)
    scale = value * np.repeat([1.0 / n for n in n_trees], n_trees)[tree]
    column = np.repeat(np.arange(len(forests)), n_trees)[tree] * M
    phi = np.bincount((column + x_feat).ravel(), minlength=len(forests) * M,
                      weights=(x_gain * scale).ravel())
    phi -= np.bincount((column + r_feat).ravel(), minlength=len(forests) * M,
                       weights=(r_held * (r_loss * scale)).ravel())
    return phi.reshape(len(forests), M) / background.shape[0]


def sample_background(features, size: int = 100, seed: int = 0) -> np.ndarray:
    """Background rows drawn without replacement (all rows if fewer than size)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] <= size:
        return features.copy()
    rows = np.sort(np.random.default_rng(seed).choice(features.shape[0], size=size,
                                                      replace=False))
    return features[rows]


# Why each other model has no leaf-path form, for the error "tree" raises.
_NO_TREE_FORM = {
    "cc": "a classifier chain link thresholds the outputs of earlier forests, "
          "so its output is not a sum of leaf values",
    "mlknn": "an ML-kNN output comes from neighbor label counts, not from "
             "leaf values",
}


def resolve_estimator(model, estimator: str | None = None) -> str:
    """The estimator ``explain_instance`` runs for ``model``.

    ``None`` means "tree" for a binary relevance model (one forest per label)
    and "kernel" for any other. An unknown name, or "tree" for a model that
    is not binary relevance, raises ValueError saying why.
    """
    is_br = isinstance(model, multilabel.BRModel)
    if estimator is None:
        return "tree" if is_br else "kernel"
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {', '.join(ESTIMATORS)}, "
                         f"got {estimator!r}")
    if estimator == "tree" and not is_br:
        algorithm = getattr(model, "algorithm", None)
        reason = _NO_TREE_FORM.get(algorithm, f"{type(model).__name__} is not "
                                              "a binary relevance model")
        raise ValueError(f'estimator "tree" explains binary relevance forests '
                         f"only: {reason}")
    return estimator


def explain_instance(model, x, background, labels, estimator: str | None = None,
                     budget=None, seed: int = 0, instance=None) -> list[Explanation]:
    """One Explanation per requested label of a fitted multi-label model.

    ``model`` must expose ``label_proba_fn(labels)`` returning a batched
    target that maps an (n, M) matrix to (n, len(labels)) probabilities (all
    mlshap models do). ``estimator`` is "exact", "kernel" or "tree", and
    defaults by ``resolve_estimator``: "tree" for binary relevance, "kernel"
    otherwise. ``budget`` and ``seed`` are read by "kernel" only.

    Every label is explained from one pass: one set of coalitions, background
    rows and regression for "exact" and "kernel", so each label's phi matches
    a one-label run to within 1e-12; one walk over the leaf paths of every
    requested forest for "tree". Each label's base value and f(x) come from
    the same target calls under every estimator and match a one-label run
    exactly.
    """
    estimator = resolve_estimator(model, estimator)
    labels = [int(l) for l in labels]
    target = ExplainTarget(f=model.label_proba_fn(labels), n_features=model.n_features)
    if estimator == "exact":
        explanations = exact_shapley(target, x, background, instance=instance)
    elif estimator == "kernel":
        explanations = kernel_shap(target, x, background, budget=budget, seed=seed,
                                   instance=instance)
    else:
        x, background = _check_inputs(target, x, background)
        base, fx, single = _base_and_fx(target, x, background)
        phi = tree_shap([model.per_label_models[l] for l in labels], x, background)
        explanations = _explanations(base, phi, fx, x, single, instance, None)
    for expl, l in zip(explanations, labels):
        expl.label = l
        expl.feature_names = getattr(model, "feature_names", None)
    return explanations


def explanation_to_doc(explanation: Explanation) -> dict:
    names = explanation.names()
    return {
        "instance": explanation.instance,
        "label": explanation.label,
        "base_value": explanation.base_value,
        "fx": explanation.fx,
        "phi": [
            {"feature": names[i], "value": float(explanation.feature_values[i]),
             "shap": float(explanation.phi[i])}
            for i in range(explanation.n_features)
        ],
    }


def explanation_from_doc(doc: dict) -> Explanation:
    if not EXPLANATION_FILE_KEYS.issubset(doc):
        missing = EXPLANATION_FILE_KEYS - set(doc)
        raise ValueError(f"explanation document missing keys: {sorted(missing)}")
    return Explanation(
        base_value=float(doc["base_value"]),
        phi=np.array([item["shap"] for item in doc["phi"]], dtype=np.float64),
        fx=float(doc["fx"]),
        feature_values=np.array([item["value"] for item in doc["phi"]],
                                dtype=np.float64),
        instance=doc["instance"],
        label=doc["label"],
        feature_names=[item["feature"] for item in doc["phi"]],
    )


def save_explanation(explanation: Explanation, path) -> None:
    _json.write(path, explanation_to_doc(explanation))


def load_explanation(path) -> Explanation:
    return explanation_from_doc(_json.read(path))
