"""Adaptive variational inference for series-prior Gaussian process regression."""

from .basis import (
    EigenBasis,
    ExpDecay,
    PolyDecay,
    SeriesPrior,
    SignalSpec,
    Truncated,
    bench_signal,
    sample_prior,
    synth_signal,
)
from .errors import ConditioningError
from .exact import (
    Dataset,
    GaussianPosterior,
    HierarchicalPosterior,
    SeriesKernel,
    SquaredExponential,
    exact_posterior,
    hierarchical_posterior,
    log_evidence,
    mmle_select,
)
from .experiments import (
    ContractionReport,
    ExperimentConfig,
    RunReport,
    contraction_study,
    emit_report,
    load_running_csv,
    run_continuous,
    run_experiment,
    simulate_poly,
)
from .inducing import (
    InducingModel,
    VariationalGP,
    elbo_at,
    elbo_lambda,
    elbo_profile,
    kl_to_posterior,
    population_features,
    predict,
    sample_features,
    titsias_fit,
)
from .meanfield import (
    MeanFieldPosterior,
    design_matrix,
    mf_elbo,
    mf_fit,
    mf_fit_levels,
    mf_kl_exact,
    mf_predict,
    mf_witness,
)
from .select import (
    HyperGrid,
    SelectionRecord,
    SelectionReport,
    coarse_init,
    dim_grid,
    exp_grid,
    poly_grid,
    select_discrete,
    tune_continuous,
)

__version__ = "0.1.0"
