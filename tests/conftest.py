import math

from hypothesis import settings
import numpy as np
import pytest

from slnlab import GroupElement

# property tests replay one fixed set of examples, without deadlines on a loaded host
settings.register_profile("slnlab", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("slnlab")


def rational_rotation_small():
    """Rotation by atan2(3,4) ~ 36.87 degrees with exact rational entries."""
    return GroupElement.from_exact([["4/5", "-3/5"], ["3/5", "4/5"]])


def rational_rotation_large():
    """Rotation by atan2(4,3) ~ 53.13 degrees with exact rational entries."""
    return GroupElement.from_exact([["3/5", "-4/5"], ["4/5", "3/5"]])


@pytest.fixture(scope="session")
def strong_rational_pair():
    """Ping-pong pair certifiable at epsilon=0.1 with exact rational entries.

    Axes: attract at 0 and ~36.87 degrees, repel at 90 and ~126.87 degrees;
    cross-separations sqrt(1 - 3/5) ~ 0.632 >= 0.6, generator strength 148.
    """
    d = GroupElement.from_exact([["148", "0"], ["0", "1/148"]])
    s = rational_rotation_small()
    return [d, s.matmul(d).matmul(s.inverse())]


@pytest.fixture(scope="session")
def weak_integer_pair():
    """The integer pair with diagonal strength 5 (too weak to contract at 0.1)."""
    d = GroupElement.from_exact([["5", "0"], ["0", "1/5"]])
    r = rational_rotation_large()
    return [d, r.matmul(d).matmul(r.inverse())]


@pytest.fixture(scope="session")
def sanov_pair():
    return [
        GroupElement.from_exact([[1, 2], [0, 1]]),
        GroupElement.from_exact([[1, 0], [2, 1]]),
    ]


class RP1Oracle:
    """Closed-form action on lines in R^2, used to cross-check n=2 machinery.

    Lines are angles in [0, pi); the flag metric is |sin(difference)| and the
    transversality margin against a line y is sqrt(1 - |cos(difference)|).
    """

    @staticmethod
    def angle_of(v):
        return math.atan2(v[1], v[0]) % math.pi

    @staticmethod
    def act(m, phi):
        v = np.asarray(m, dtype=float) @ np.array([math.cos(phi), math.sin(phi)])
        return RP1Oracle.angle_of(v)

    @staticmethod
    def dist(phi1, phi2):
        return abs(math.sin(phi1 - phi2))

    @staticmethod
    def margin(phi_flag, phi_opp):
        return math.sqrt(1.0 - abs(math.cos(phi_flag - phi_opp)))

    @staticmethod
    def flag_frame(phi):
        return np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )

    @staticmethod
    def opposite_frame(phi):
        # the line sits in the last column
        return np.array(
            [[-math.sin(phi), math.cos(phi)], [math.cos(phi), math.sin(phi)]]
        )


@pytest.fixture(scope="session")
def rp1():
    return RP1Oracle
