import numpy as np
import pytest
from hypothesis import settings

from projlat import AlgebraShape

# selected with --hypothesis-profile=ci: a counterexample found only
# there is reported with the @reproduce_failure blob that replays it
settings.register_profile("ci", print_blob=True)


SHAPES = [AlgebraShape([3]), AlgebraShape([2, 3]), AlgebraShape([4])]

SHAPE_IDS = ["3", "2+3", "4"]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=SHAPES, ids=SHAPE_IDS)
def shape(request):
    return request.param
