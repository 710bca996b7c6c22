"""The benchmark's workloads: the program's config plus the sizes of one round.

Each workload is a `key = value` config in the program's own format, so the
in-process phases and the CLI round trip read exactly the same settings.
The seed passed on the command line becomes the config's `seed`, which
drives data generation, weight init, dropout and batch order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

QUICKSTART = """
rule = key-actor-side
num_actions = 9
num_activities = 8
n_actors = 12
branches = static:16
noise = 0.5
d_model = 32
d_ff = 64
num_layers = 1
num_heads = 1
dropout = 0.1
use_pe = on
fusion = none
optimizer = adam
lr_schedule = 0:0.01
batch_size = 16
"""

RAGGED_FUSION = """
rule = key-actor-side
num_actions = 9
num_activities = 8
n_actors = 3-16
branches = static:16, dynamic-rgb:16
complementary = on
corrupt_prob = 0.25
noise = 0.5
d_model = 64
d_ff = 128
num_layers = 2
num_heads = 2
dropout = 0.1
use_pe = off
fusion = early-concat
optimizer = sgd-momentum
momentum = 0.9
lr_schedule = 0:0.01
batch_size = 16
"""

LATE_FUSION = """
rule = majority-action
num_actions = 8
num_activities = 8
n_actors = 6-14
branches = static:16, dynamic-rgb:32, dynamic-flow:32
noise = 0.5
d_model = 32
d_ff = 64
num_layers = 1
num_heads = 1
dropout = 0.1
use_pe = on
fusion = late
late_weights = static:2, dynamic-rgb:1, dynamic-flow:1
optimizer = adam
lr_schedule = 0:0.01
batch_size = 16
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # the program's config text, without seed, sizes or paths
    scenes: int  # generated in set-up: the train split plus the held-out split
    held_out: int  # evaluated every round
    train_steps: int  # optimizer steps per round (per branch under late fusion)
    latency_samples: int  # one-scene requests per round
    io_scenes: int  # scenes in the dataset file saved each round
    loads_per_save: int  # dataset loads per save
    checkpoint_trips: int  # save_model + load_model pairs per round
    cli_scenes: int  # scene_count of the CLI round trip
    cli_iterations: int  # total_iterations of the CLI round trip
    setup_repeats: int  # generate + init repeats; setup_s takes their median
    min_rounds: int  # a run never stops before this many rounds
    accuracy_floor: float | None = None  # held-out group accuracy the check must reach
    accuracy_budget: int = 0  # optimizer steps of the check's straight training run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-quickstart", QUICKSTART, scenes=5000, held_out=1000, train_steps=40,
                 latency_samples=1000, io_scenes=600, loads_per_save=1, checkpoint_trips=6,
                 cli_scenes=80, cli_iterations=6, setup_repeats=5, min_rounds=3,
                 accuracy_floor=0.90, accuracy_budget=800),
        Workload("train-ragged-fusion", RAGGED_FUSION, scenes=2400, held_out=300, train_steps=16,
                 latency_samples=1000, io_scenes=1000, loads_per_save=1, checkpoint_trips=6,
                 cli_scenes=60, cli_iterations=4, setup_repeats=5, min_rounds=3),
        Workload("io-late-fusion", LATE_FUSION, scenes=4000, held_out=300, train_steps=10,
                 latency_samples=500, io_scenes=300, loads_per_save=2, checkpoint_trips=6,
                 cli_scenes=60, cli_iterations=3, setup_repeats=5, min_rounds=3),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload with tiny rounds: every phase and every check, once.

    The scene counts stay, because the accuracy check needs the full train
    split to generalise.
    """
    return replace(w, latency_samples=20, io_scenes=min(w.io_scenes, 40), checkpoint_trips=2,
                   cli_scenes=24, cli_iterations=2, setup_repeats=1, min_rounds=1)
