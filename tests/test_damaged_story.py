"""Where DI1 points on a taller frame: the damaged spring's two floors.

In a shear frame, story s's spring joins floors s - 1 and s, so a stiffness
loss at story s shifts the features of the sensors on both floors. In known
mode at order 7, DI1's top sensor falls on story s or s - 1, and never
above the damage. This pins that on an 8-story frame with the benchmark's
frame constants, for a loss of half the stiffness at each story in turn.
The seeds are fixed per story.
"""

import pytest

from shmseq.estimator import fit_predamage
from shmseq.features import DsfConfig, extract_dsf_stream
from shmseq.localization import SensorOutcome, build_report
from shmseq.shearsim import DamageScenario, Excitation, ShearFrameModel, simulate

STORIES = 8
CHUNK, FS = 400, 50.0
CHUNKS = 100  # per training record and per post-damage record
MODEL = ShearFrameModel.uniform(STORIES, 1000.0, 328000.0, 0.02)
CONFIG = DsfConfig(chunk_size=CHUNK, order=7)


def record(scenario, seed):
    excitation = Excitation(seed, 100.0, FS, CHUNKS * CHUNK / FS, 40.0)
    return simulate(MODEL, scenario, excitation, CHUNK)


@pytest.mark.parametrize("story", range(1, STORIES + 1))
def test_di1_top_sensor_is_on_the_damaged_spring(story):
    training = record(DamageScenario.undamaged(), seed=81_000 + story)
    damaged = record(DamageScenario(story, 0.5, lambda_chunk=1), seed=82_000 + story)
    outcomes = [
        SensorOutcome(
            sensor_id=sid,
            position=f"story_{floor}",
            pre=fit_predamage(extract_dsf_stream(training.signals[:, j], CONFIG)),
            post=fit_predamage(extract_dsf_stream(damaged.signals[:, j], CONFIG)),
        )
        for j, (sid, floor) in enumerate(zip(training.sensor_ids, training.sensor_stories))
    ]
    ranking = build_report(outcomes).ranked_by_di1()
    top = ranking[0]
    floor = training.sensor_stories[training.sensor_ids.index(top)]
    assert floor in (story - 1, story), (story, ranking)
