"""Multi-label classifiers with Shapley-value explanations.

Train binary relevance, classifier chain, or ML-kNN models on tabular
multi-label data, attribute any single per-label prediction to the input
features with an exact, kernel-based or (for binary relevance forests)
tree-path Shapley estimator, and aggregate the attributions into importance,
summary (beeswarm), and force views emitted as JSON and SVG.
"""

from .data import (
    Dataset,
    FoldPlan,
    ParseError,
    load_arff,
    load_csv,
    make_folds,
    save_csv,
    split,
)
from .evaluation import (
    METRICS,
    PRESETS,
    CVReport,
    ParamGrid,
    fit_point,
    grid_search,
    hamming_loss,
    micro_f1,
    subset_accuracy,
)
from .forest import (
    ForestParams,
    RandomForest,
    fit_forest,
    fit_forests,
    fit_tree,
    tree_rng,
)
from .multilabel import (
    BRModel,
    CCModel,
    MLKNNModel,
    MultiLabelModel,
    derive_seed,
    fit_br,
    fit_cc,
    fit_mlknn,
    load_model,
    save_model,
)
from .shapley import (
    ENUMERATION_CAP,
    EstimationError,
    ExplainTarget,
    Explanation,
    exact_shapley,
    explain_instance,
    explanation_from_doc,
    explanation_to_doc,
    kernel_shap,
    kernel_weight,
    load_explanation,
    resolve_estimator,
    sample_background,
    save_explanation,
    solve_weighted_ls,
    tree_shap,
)
from .viz import (
    ForceData,
    ImportanceTable,
    PlotSpec,
    SummaryPoints,
    feature_importance,
    force_data,
    plot_spec,
    render_svg,
    spec_from_json,
    summary_points,
    write_json,
)

__version__ = "0.1.0"
