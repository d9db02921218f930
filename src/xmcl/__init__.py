"""Cross-modal continual metric learning with conformal replay selection."""

from .banks import (
    BankEntry,
    ReplayBanks,
    ingest_task,
    load_banks,
    replay_epoch_batches,
    save_banks,
    score_task,
    update_bank,
)
from .conformal import (
    CpConfig,
    PredictionSet,
    calibrate_tau,
    cp_score,
    cp_scores,
    prediction_set,
    rank_and_cumulate,
    uncertainties,
    uncertainty,
)
from .data import (
    Sample,
    Split,
    SynthSpec,
    TaskDataset,
    generate_synthetic_task,
    load_task,
    pk_epoch_batches,
    save_task,
)
from .encoder import (
    ActivationStack,
    EncoderConfig,
    EncoderState,
    StackGradients,
    apply_deltas,
    backward,
    embed,
    forward,
    init_encoder,
    load_state,
    register_task_head,
    save_state,
)
from .losses import (
    JmmdSpec,
    LossBreakdown,
    gaussian_kernel,
    i2tce_loss,
    id_loss,
    jmmd,
    jmmd_with_grad,
    median_bandwidth,
    sim_loss,
    triplet_loss,
)
from .metrics import MetricsRecord, aggregate, average_precision, evaluate
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
