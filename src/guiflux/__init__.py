"""Continual GUI-grounding simulator with diversity-shaped group-relative
policy optimization."""

from .geometry import BBox, center, contains, iou, to_gaussian
from .harness import (
    AccuracyMatrix,
    RunConfig,
    TrainRecord,
    ablate,
    evaluate,
    forgetting,
    forward_transfer,
    reward_trend,
    run_continual,
    train_stage,
)
from .policy import (
    GroundingPolicy,
    GroupRollout,
    NumericalAbort,
    OptimConfig,
    action_to_bbox,
    grad_objective,
    grpo_advantage,
    kl_ref_theta,
    objective,
    sample_group,
    step,
)
from .rewards import (
    RewardConfig,
    bhattacharyya,
    center_spread,
    correctness,
    correctness_gaussian,
    correctness_point,
    diversity_reward,
    region_separation,
)
from .simulator import (
    EpisodeBatch,
    TaskSpec,
    make_sequence,
    sample_instances,
)

__version__ = "0.1.0"
