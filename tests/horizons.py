"""A horizon set from an explicit list of horizons, for tests."""

from horizonmix.mixture import HorizonSet


def horizon_set_from_list(horizons) -> HorizonSet:
    return HorizonSet(tuple(int(h) for h in horizons))
