"""trimclust: clustering with outliers via ring-sampled weighted coresets.

The pipeline reduces a clustering-with-outliers instance to many outlier-free
instances: build a weighted coreset around an over-provisioned baseline
solution, enumerate which coreset entries to treat as outliers, solve each
remaining instance with a pluggable solver, and keep the candidate that scores
best on the original data.  Exhaustive oracles, a powered-cost generalization,
per-color outlier budgets, and matroid center constraints are included.
"""

from .metric import (
    DistanceOracle,
    EuclideanOracle,
    MatrixOracle,
    MetricInstance,
    PointId,
    Solution,
    WeightedPointSet,
    diameter,
    farthest_points,
    set_distance,
    trimmed_cost,
    trimmed_score,
    trimmed_sum,
    weighted_trimmed_cost,
)
from .coreset import (
    BaselineResult,
    ConcentrationReport,
    CoresetParams,
    RingBoundReport,
    RingPartition,
    SampleCheckConfig,
    WeightedCoreset,
    baseline_solve,
    build_augmented_instance,
    build_coreset,
    coreset_size_bound,
    ring_partition,
    sample_concentration_check,
    verify_ring_bounds,
)
from .solvers import (
    CandidateSpace,
    SolverBudgetExceeded,
    SolverHandle,
    exact_kmedian,
    solve_outlier_free,
)
from .reduction import (
    CostOverflowError,
    ReductionReport,
    RoundRecord,
    default_rounds,
    enumerate_outlier_subsets,
    evaluate_candidate,
    solve_with_outliers,
)
from .matroids import (
    DirectSumMatroid,
    ExplicitMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    check_matroid_axioms,
    direct_sum_matroid,
    matroid_bases,
)
from .extensions import (
    ColorfulInstance,
    colorful_cost,
    colorful_matroid_oracle,
    colorful_matroid_solve,
    colorful_oracle,
    colorful_outliers,
    colorful_solve,
    exact_outlier_oracle,
    matroid_median_oracle,
    matroid_median_solve,
)
from .generate import PlantedConfig, generate_planted
from .bench import run_experiment

__version__ = "0.1.0"
