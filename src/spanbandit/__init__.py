"""Span-level adaptive trace sampling.

Beliefs over per-span utility drive a probability-matching sampling
policy; the policy decides which spans keep reporting; the surviving
spans feed the next belief update. The package bundles the trace data model, the
latency decomposition, the belief and policy machinery, a closed-loop
simulator with presets, elimination baselines, and tag correlation.
"""
from .abs_sampler import (
    EmptyStore,
    InvalidPolicy,
    SamplingPolicy,
    VitalityReport,
    VitalSetConfig,
    build_policy,
    load_policy,
    policy_from_json_dict,
    policy_to_json_dict,
    report,
    save_policy,
)
from .baselines import (
    ArmEnvironment,
    BudgetExhausted,
    ComparisonConfig,
    ComparisonResult,
    EliminationOutcome,
    SampleBudget,
    abs_run,
    compare_elimination,
    ege_round_quota,
    ege_run,
    make_arm_env,
    me_round_quota,
    me_run,
    median_elimination,
)
from .belief import (
    BeliefStore,
    BetaBelief,
    InvalidBelief,
    NormalizationOutOfRange,
    init_belief,
    learn_batch,
    load_store,
    posterior_variance,
    save_store,
    store_from_json_dict,
    store_to_json_dict,
    update_epoch,
    write_json,
)
from .experiment import (
    BenchResult,
    ExperimentResult,
    RunConfig,
    SweepPoint,
    bench_inference,
    run_experiment,
    run_one,
    sweep,
    write_epoch_rows,
    write_sweep_csv,
)
from .presets import Preset, get_preset, preset_names
from .simulator import (
    AnomalySpec,
    CallSpec,
    CanaryAnomaly,
    ContentionAnomaly,
    ControllerConfig,
    EpochMetrics,
    GroundTruth,
    InvalidTopology,
    LatencyModel,
    OperationSpec,
    RandomDelayAnomaly,
    RunResult,
    ServiceTagSpec,
    TopologySpec,
    WorkloadSpec,
    generate_request,
    latency_from_median_us,
    load_spec,
    run_closed_loop,
    save_spec,
    shift_anomaly,
    simulate_workload,
    with_seed,
)
from .tag_analysis import (
    CorrelationRow,
    LengthMismatch,
    TagMatrix,
    build_tag_matrix,
    correlation_report,
    pearson,
    strongest_tag,
)
from .trace_model import (
    CycleDetected,
    DecomposedSpan,
    DuplicateSpanId,
    MultipleRoots,
    OrphanSpan,
    SpanIdentity,
    SpanRecord,
    Trace,
    TraceError,
    TraceFormatError,
    build_trace,
    decompose,
    read_traces_jsonl,
    span_from_json,
    span_to_json,
    union_duration,
    write_traces_jsonl,
)
from .utility import (
    EmptyBatch,
    UnknownIdentity,
    UnknownMeasure,
    UtilityEstimate,
    available_measures,
    compute_batch_utilities,
    measure_comparison,
    measure_min_samples,
    pool_self_segments,
    register_measure,
)
from .version import VERSION

__version__ = VERSION
