"""crossbt: differential testing of portfolio backtesting conventions.

A reference proportional-cost simulator, engine variants reproducing
documented cost/fill/timing failure modes, a benchmark strategy suite over
covariate-balanced asset buckets, and the metrics and statistics needed to
quantify how much engine choice moves a backtest.
"""

# Set before the submodule imports: harness reads it while the package loads.
__version__ = "0.1.0"

from .buckets import (
    CovariateTable,
    InfeasibleConstraint,
    Partition,
    compute_covariates,
    mahalanobis_score,
    rerandomize,
    sector_balance,
)
from .engine import (
    CONVENTIONS,
    DEFAULT_ROSTER,
    REFERENCE,
    BadConvention,
    CostSpec,
    EngineConvention,
    EquitySeries,
    PerfStats,
    WeightSchedule,
    annual_turnover,
    cost_intensity,
    performance_metrics,
    resolve_convention,
    run_reference,
    run_variant,
    trade_cost,
    truncated,
)
from .harness import (
    BucketConfig,
    ReportBundle,
    ResultStore,
    RunConfig,
    analyze,
    emit_reports,
    run_suite,
    validate_results,
)
from .marketdata import (
    BadCalendar,
    BadPrice,
    BadSpec,
    HoleInPanel,
    PriceMatrix,
    SynthSpec,
    UniverseStats,
    descriptive_stats,
    generate_synthetic,
    load_prices_csv,
    write_prices_csv,
)
from .mlsignals import (
    ElasticNetConfig,
    ElasticNetFit,
    NotEnoughHistory,
    WalkForwardConfig,
    build_features,
    fit_elastic_net,
    walk_forward_signal,
)
from .riskmetrics import (
    DivergenceRecord,
    EngineSample,
    NotEnoughEngines,
    UndefinedAmplification,
    csi,
    daf,
    dollar_ambiguity,
    es_cv,
    es_range,
    floor_decomposition,
    implementation_risk,
    iui,
    pairwise_divergence,
)
from .stats import (
    BootstrapResult,
    NotEnoughClusters,
    TestResult,
    TostResult,
    bh_fdr,
    chi2_sf,
    cluster_bootstrap,
    lag1_autocorr,
    lin_ccc,
    normal_cdf,
    one_sample_t,
    pearson,
    sign_flip_permutation,
    spearman,
    t_cdf,
    t_quantile,
    tost,
    wilcoxon_signed_rank,
)
from .strategies import BENCHMARKS, BenchmarkSpec
