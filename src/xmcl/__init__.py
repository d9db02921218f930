"""Cross-modal continual metric learning with conformal replay selection."""

from .banks import (
    ReplayBanks,
    admit,
    ingest_task,
    replay_epoch_batches,
    save_banks,
    score_task,
)
from .conformal import (
    CpConfig,
    PredictionSet,
    prediction_set,
    uncertainties,
)
from .data import (
    Split,
    SynthSpec,
    TaskDataset,
    generate_synthetic_task,
    load_task,
    save_task,
)
from .encoder import (
    ActivationStack,
    EncoderConfig,
    EncoderState,
    apply_deltas,
    backward,
    embed,
    forward,
    init_encoder,
    register_task_head,
)
from .losses import JmmdSpec, LossBreakdown
from .metrics import MetricsRecord, aggregate, evaluate
from .schemes import (
    high_gap_single_task_config,
    standard_schedule,
    standard_task_specs,
    standard_two_task_config,
)
from .trainer import (
    Adam,
    ExperimentConfig,
    ExperimentState,
    Schedule,
    batch_gradients,
    lr_at,
    report_to_csv,
    run_sequence,
    train_task,
)

__version__ = "0.1.0"
