"""Shapley attributions for single predictions.

Two model-agnostic estimators share one coalition-value function.
``exact_shapley`` enumerates every feature subset and applies the
combinatorial weights directly; ``kernel_shap`` fits the additive surrogate

    g(z') = phi_0 + sum_j phi_j z'_j

by weighted least squares over coalitions, with the empty and full
coalitions pinned as hard constraints so phi_0 + sum(phi) always equals the
model output at the explained instance. Its coalitions come in complementary
pairs: size classes z and M-z are enumerated together while the pair fits in
the budget, and the rest is spent on draws weighted by the kernel mass left,
each added with its complement. Paired coalitions keep the estimate free of
bias between a game and its dual. Hidden features are marginalized by
replacing them with background rows and averaging (interventional
expectation). ``tree_shap`` computes the same interventional values of a
forest exactly, in closed form over its leaf paths, without evaluating it at
all. Every estimator takes finite values only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _blocks, _json, multilabel
from .forest import _as_int, leaf_paths

ENUMERATION_CAP = 16  # exact enumeration and budget="full" refuse beyond this
DEFAULT_BUDGET_EXTRA = 2048  # default kernel budget is 2*M + this

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

    ``coalitions``, when given, evaluates f on the rows that complete
    coalitions of x with the background rows without those rows being
    built: ``coalitions(x, background, n_masks)`` returns ``(outputs,
    row_bytes, budget)``, where ``outputs(masks)`` is the C-ordered
    (n, L, B) array of f on row (mask, b) at [mask, :, b], the same bits as
    f gives, holding at most ``row_bytes`` bytes per mask, and its blocks
    run within ``budget`` bytes. Where it is None, or returns None for a
    call, the rows are synthesized and f is called on them.
    """

    f: Callable[[np.ndarray], np.ndarray]
    n_features: int
    coalitions: Callable | None = None


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
        if (self.phi.shape != self.feature_values.shape or self.phi.ndim != 1
                or self.phi.size == 0):
            raise ValueError("phi must be a non-empty vector as long as feature_values")
        if self.feature_names is not None and len(self.feature_names) != self.n_features:
            raise ValueError(f"feature_names must have {self.n_features} entries, one "
                             f"per feature, got {len(self.feature_names)}")

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


def _check_inputs(n_features: int, x, background):
    """x as a finite float64 vector of width ``n_features``, and background as
    a non-empty finite matrix of that width (one vector is one row)."""
    x = np.asarray(x, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if background.ndim == 1:
        background = background[None, :]
    if x.ndim != 1 or x.shape[0] != n_features:
        raise ValueError(f"instance width {x.shape} does not match target "
                         f"width {n_features}")
    if background.ndim != 2 or background.shape[0] < 1 or background.shape[1] != n_features:
        raise ValueError("background must be a non-empty matrix of target width")
    for name, values in (("instance", x), ("background", background)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, not nan or inf")
    return x, background


def _at_instance(target, x):
    """f(x) as L values, and whether f is 1-D (one output)."""
    out = np.asarray(target.f(x[None, :]), dtype=np.float64)
    return out.reshape(-1), out.ndim == 1


def _synthesized(f, n_outputs, x, background, n_masks):
    """``ExplainTarget.coalitions`` by synthesis: per mask, its B rows of
    width M, and f's (B, L) output with its transposed copy."""
    B, M = background.shape

    def outputs(masks):
        synth = np.where(masks[:, None, :], x[None, None, :], background[None, :, :])
        out = np.asarray(f(synth.reshape(-1, M)), dtype=np.float64)
        return np.ascontiguousarray(out.reshape(masks.shape[0], B, -1).transpose(0, 2, 1))

    return outputs, 8 * B * (M + 2 * n_outputs), _blocks._BLOCK_BYTES


def _coalition_values(target, x, masks, background, n_outputs):
    """Mean model output over background-completed rows: (n_masks, L).

    The target's ``coalitions`` (or synthesis, without one or where it
    declines the call) is set up once for (x, background) and the masks,
    and its outputs computed in blocks of masks within its byte budget,
    shared by the threads of ``_blocks.map_slices``. For a forest model
    whose trees all hold tables (``multilabel._coalitions``), a block holds
    per mask the B values of each forest and output, and each (tree,
    background row) table, 8·2^k bytes for a tree reading k features, is
    held for the whole call, out of the budget; otherwise a block holds the
    B synthesized rows of each mask and the target's outputs on them. Each
    mean runs along a contiguous axis of length B, so it sums in the same
    order whatever L is, however the masks are blocked, whichever thread
    runs the block and whether the outputs came from tables or from rows.
    """
    n_masks = masks.shape[0]
    tables = target.coalitions and target.coalitions(x, background, n_masks)
    outputs, row_bytes, budget = tables or _synthesized(target.f, n_outputs, x, background,
                                                        n_masks)

    def block_values(rows):
        return outputs(masks[rows]).mean(axis=-1)

    return np.concatenate(_blocks.map_slices(block_values, n_masks, row_bytes, budget))


def _explanations(base, phi, fx, x, single):
    """One Explanation per output row of ``phi``; the only one for a 1-D target."""
    expls = [Explanation(base_value=float(base[j]), phi=phi[j], fx=float(fx[j]),
                         feature_values=x.copy())
             for j in range(len(fx))]
    return expls[0] if single else expls


def exact_shapley(target: ExplainTarget, x, background):
    """Attributions by full subset enumeration (the combinatorial definition).

    phi_i sums, over every coalition S not containing i, the weight
    |S|! (M-|S|-1)! / M! times the value gained by adding i to S. Capped at
    M <= 16 features. Returns one Explanation for a 1-D target, else a list
    with one per output column.
    """
    x, background = _check_inputs(target.n_features, x, background)
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
    return _explanations(base, phi, fx, x, single)


def kernel_weight(M: int, z: int) -> float:
    """Shapley kernel weight for a proper coalition of size z out of M."""
    if not 1 <= z <= M - 1:
        raise ValueError(f"coalition size must be in [1, M-1], got z={z} for M={M}; "
                         "empty and full coalitions are hard constraints")
    return (M - 1) / (math.comb(M, z) * z * (M - z))


def _sample_coalitions(M: int, budget: int, rng: np.random.Generator):
    """Coalition masks and kernel weights for ``budget`` <= 2^M - 2 rows,
    closed under complement (Covert & Lee 2021, arXiv 2012.01536).

    Size classes are enumerated in complementary pairs {z, M-z}, from z = 1
    inward while the whole pair fits in the budget; each enumerated row keeps
    its ``kernel_weight``. The rest of the budget goes to draws of a size z in
    proportion to the kernel mass (M-1) / (z (M-z)) of the sizes left, then of
    a uniform subset of that size, each added with its complement. Each
    sampled row weighs the mass left over the number of sampled rows. An odd
    remainder drops the unpaired draw, so E + 2 * ((budget - E) // 2) rows
    come back for E enumerated ones, all 2^M - 2 once every pair fits.
    """
    half, weights, n_enum = [], [], 0
    for z in range(1, M // 2 + 1):
        n_class = math.comb(M, z)
        if n_enum + (n_class if 2 * z == M else 2 * n_class) > budget:
            break
        combos = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(M), z)), dtype=np.intp).reshape(n_class, z)
        block = np.zeros((n_class, M), dtype=bool)
        np.put_along_axis(block, combos, True, axis=1)
        # The middle class is its own complement: keep the half holding feature 0.
        half.append(block[block[:, 0]] if 2 * z == M else block)
        weights.append(np.full(len(half[-1]), kernel_weight(M, z)))
        n_enum += 2 * len(half[-1])
    left = np.arange(len(half) + 1, M - len(half))
    n_draws = (budget - n_enum) // 2
    if n_draws:
        mass = (M - 1) / (left * (M - left))
        sizes = rng.choice(left, size=n_draws, p=mass / mass.sum())
        drawn = np.empty((n_draws, M), dtype=bool)
        np.put_along_axis(drawn, rng.random((n_draws, M)).argsort(axis=1),
                          np.arange(M) < sizes[:, None], axis=1)
        half.append(drawn)
        weights.append(np.full(n_draws, mass.sum() / (2 * n_draws)))
    half, weights = np.concatenate(half), np.concatenate(weights)
    return np.concatenate([half, ~half]), np.concatenate([weights, weights])


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
    import scipy.linalg  # here, so a run that solves no system never loads scipy

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


def kernel_shap(target: ExplainTarget, x, background, budget=None, seed: int = 0):
    """Attributions from the kernel-weighted surrogate regression.

    ``budget`` counts proper-coalition evaluations: an integer >= 2, or
    ``"full"`` for all 2^M - 2 of them (M <= 16), or None for the default
    2*M + 2048. Size pairs {z, M-z} are enumerated from z = 1 inward while
    they fit, E rows in all; the rest are complement-paired draws, so
    E + 2 * ((budget - E) // 2) coalitions are evaluated: an odd remainder
    leaves one unused. The constraints g(empty) = phi_0 and g(full) = f(x) are
    eliminated by substitution, so local accuracy holds by construction.
    Deterministic for a fixed seed. Returns one Explanation for a 1-D target,
    else a list with one per output column; all outputs share the coalitions
    and one weighted least-squares factorization. phi_0, the empty
    coalition's value, comes from the same ``_coalition_values`` call as the
    sampled coalitions, as its last mask.
    """
    x, background = _check_inputs(target.n_features, x, background)
    M = target.n_features
    n_budget = _coalition_budget(budget, M)
    fx, single = _at_instance(target, x)
    empty = np.zeros((1, M), dtype=bool)
    if M == 1:
        # Both constraints pin the single attribution; nothing to regress.
        base = _coalition_values(target, x, empty, background, len(fx))[0]
        return _explanations(base, (fx - base)[:, None], fx, x, single)

    rng = np.random.default_rng(seed)
    masks, weights = _sample_coalitions(M, n_budget, rng)
    values = _coalition_values(target, x, np.concatenate([masks, empty]), background,
                               len(fx))
    values, base = values[:-1], values[-1]

    # Substitute phi_e = (fx - base) - sum(other phi) to enforce g(full) = fx.
    Z = masks.astype(np.float64)
    z_e = Z[:, M - 1]
    design = Z[:, : M - 1] - z_e[:, None]
    responses = values - base - z_e[:, None] * (fx - base)
    coef = solve_weighted_ls(design, weights, responses).T  # (L, M - 1)
    phi = np.column_stack([coef, (fx - base) - coef.sum(axis=1)])
    return _explanations(base, phi, fx, x, single)


def _path_weights(depth: int) -> np.ndarray:
    """w[a, b] = a! b! / (a + b + 1)! for a, b in 0..depth."""
    return np.array([[1.0 / ((a + b + 1) * math.comb(a + b, a))
                      for b in range(depth + 1)] for a in range(depth + 1)])


def _within(values, lower, upper):
    inside = lower < values
    inside &= values <= upper
    return inside


def tree_shap(forests, x, background) -> np.ndarray:
    """Exact interventional Shapley values of each forest's output at ``x``.

    Returns a (len(forests), M) matrix; row j explains ``forests[j]`` with
    hidden features drawn from the background rows, the value function
    ``exact_shapley`` and ``kernel_shap`` evaluate; x and the background are
    checked as they check them, against the width all forests must share.
    A forest's output is the mean of its trees' leaf values, so its Shapley
    values are the mean, over trees, leaves and background rows r, of those
    of the game "the synthesized row reaches this leaf" times the leaf value
    v. Each feature on the leaf's path is x-only (x meets the path's
    conditions on it and r does not), r-only (the reverse), both, or
    neither; the leaf is dead (no coalition reaches it) when some feature is
    neither. Otherwise, with X and R the x-only and r-only sets, a coalition
    reaches the leaf exactly when it holds X and none of R, so each x-only
    feature gains
    v (|X|-1)! |R|! / (|X|+|R|)! and each r-only one loses
    v |X|! (|R|-1)! / (|X|+|R|)! (Lundberg et al. 2020, arXiv 1905.04610).

    One masked pass per block of background rows tests each (path column,
    leaf) cell: the leaf is live when x or r meets each of its cells, its
    x-only cells are those x meets and r misses, and on a live leaf every
    cell x misses is r-only. Padding (feature 0, bounds -inf and inf) is met by
    every finite value. Per row, a block holds 10 bytes a cell (the float64
    gather and two boolean masks), 41 a leaf (counts, weights and the mask of
    the leaves the row reaches) and 24 a slot of a (tree, forest) grid with a
    row more than the most trees of one forest (the reached leaf value and
    the two indices that place it, or the forest's running total, mean and
    output), within the byte budget of ``_blocks``.
    """
    return _tree_pass(forests, x, background)[0]


def _forest_outputs(reached, slot, value, n_trees):
    """Each forest's output on each row, as ``RandomForest.predict_proba``
    gives it: a (forests, rows) matrix from the (rows, leaves) mask of the
    leaf each row reaches in each tree. ``slot`` places each leaf's tree in a
    (tree within its forest, forest) grid; the leaf values are added in tree
    order and the total divided by the tree count, so the result is bit-equal.
    """
    row, leaf = np.nonzero(reached)
    per_tree = np.zeros((max(n_trees), len(n_trees), reached.shape[0]))
    per_tree.reshape(-1, reached.shape[0])[slot[leaf], row] = value[leaf]
    total = per_tree[0].copy()
    for values in per_tree[1:]:
        total += values  # the zeros past a shorter forest's last tree add nothing
    return total / np.array(n_trees)[:, None]


def _tree_pass(forests, x, background):
    """``tree_shap``'s values with each forest's base value (its mean output
    over the background rows) and output at ``x``, all from the same leaf
    paths: a row reaches the one leaf per tree whose every path column it
    meets. Base value and output are bit-equal to those the other estimators
    get from the forests' ``predict_proba``: f(x) from ``_at_instance`` and
    the base value from ``_coalition_values`` of the empty mask."""
    x, background = _check_inputs(forests[0].n_features, x, background)
    M = x.shape[0]
    for j, forest in enumerate(forests):
        if forest.n_features != M:
            raise ValueError(f"forest {j} has width {forest.n_features}, "
                             f"the instance has width {M}")
    n_trees = [forest.params.n_trees for forest in forests]
    forest, rank, value, feature, lower, upper = leaf_paths(forests)
    feature, lower, upper = (np.ascontiguousarray(a.T)
                             for a in (np.maximum(feature, 0), lower, upper))
    slot = rank * len(forests) + forest
    x_ok = _within(x[feature], lower, upper)
    fx = _forest_outputs(x_ok.all(axis=0)[None], slot, value, n_trees)[:, 0]
    n_r = (~x_ok).sum(axis=0)
    weights = _path_weights(feature.shape[0])
    x_gain = np.zeros(feature.shape)
    r_loss = np.zeros(value.shape[0])
    outputs = np.empty((len(forests), background.shape[0]))
    row_bytes = ((10 * feature.shape[0] + 41) * value.shape[0]
                 + 24 * (max(n_trees) + 1) * len(forests))
    for rows in _blocks.row_slices(background.shape[0], row_bytes):
        r_ok = _within(np.take(background[rows], feature, axis=1), lower, upper)
        live = (r_ok | x_ok).all(axis=1)
        miss = x_ok & ~r_ok
        n_x = miss.sum(axis=1)
        # r reaches a leaf when it is live with no cell that r misses and x meets.
        outputs[:, rows] = _forest_outputs(live & (n_x == 0), slot, value, n_trees)
        # An index of -1 (no x-only or no r-only feature) reads a real entry
        # that nothing uses: no cell misses, or no cell is r-only.
        w_x = np.where(live, weights[n_x - 1, n_r], 0.0)
        x_gain += np.einsum("bdk,bk->dk", miss, w_x)
        r_loss += np.where(live, weights[n_x, n_r - 1], 0.0).sum(axis=0)
        del r_ok, live, miss, n_x, w_x  # the budget counts one block at a time
    scale = value * np.array([1.0 / n for n in n_trees])[forest]
    column = (forest * M + feature).ravel()
    gain = np.where(x_ok, x_gain, -r_loss) * scale  # r-only cells lose r_loss
    phi = np.bincount(column, weights=gain.ravel(), minlength=len(forests) * M)
    # The mean runs along the contiguous background axis, as _coalition_values's.
    base = outputs.mean(axis=-1)
    return phi.reshape(len(forests), M) / background.shape[0], base, fx


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
    mlshap models do), and may expose ``coalition_fn(labels)``, the
    target's ``ExplainTarget.coalitions`` (BR and CC forests have one).
    ``estimator`` is "exact", "kernel" or "tree", and defaults by
    ``resolve_estimator``: "tree" for binary relevance, "kernel" otherwise.
    ``budget`` and ``seed`` are read by "kernel" only.

    Every label is explained from one pass: one set of coalitions, background
    rows and regression for "exact" and "kernel", so each label's phi matches
    a one-label run to within 1e-12; one walk over the leaf paths of every
    requested forest for "tree", which evaluates no forest. Each label's
    base value and f(x) come from the same target calls under "exact" and
    "kernel", and from the leaf paths, bit-equal to them, under "tree"; they
    match a one-label run exactly.
    """
    estimator = resolve_estimator(model, estimator)
    labels = [_as_int("label id", l) for l in labels]
    coalition_fn = getattr(model, "coalition_fn", None)
    target = ExplainTarget(f=model.label_proba_fn(labels), n_features=model.n_features,
                           coalitions=coalition_fn(labels) if coalition_fn else None)
    if estimator == "exact":
        explanations = exact_shapley(target, x, background)
    elif estimator == "kernel":
        explanations = kernel_shap(target, x, background, budget=budget, seed=seed)
    else:
        phi, base, fx = _tree_pass([model.per_label_models[l] for l in labels], x,
                                   background)
        explanations = _explanations(base, phi, fx, np.asarray(x, dtype=np.float64),
                                     single=False)
    for expl, l in zip(explanations, labels):
        expl.instance = instance
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


EXPLANATION_DOC = {"instance": (None, int), "label": (None, int), "base_value": float,
                   "fx": float, "phi": [{"feature": str, "value": float, "shap": float}]}


def explanation_from_doc(doc: dict) -> Explanation:
    """The Explanation of an ``explanation_to_doc`` document; one that breaks
    ``EXPLANATION_DOC``, or whose ``phi`` is empty, raises ValueError."""
    doc = _json.parse(doc, EXPLANATION_DOC, "explanation")
    phi = doc.pop("phi")
    return Explanation(**doc, phi=[item["shap"] for item in phi],
                       feature_values=[item["value"] for item in phi],
                       feature_names=[item["feature"] for item in phi])


def save_explanation(explanation: Explanation, path) -> None:
    _json.write(path, explanation_to_doc(explanation))


def load_explanation(path) -> Explanation:
    return explanation_from_doc(_json.read(path, "explanation"))
