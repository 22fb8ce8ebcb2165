"""A horizon set from an explicit list of horizons, for tests."""

from horizonmix.mixture import HorizonSet


def horizon_set_from_list(horizons) -> HorizonSet:
    hs = tuple(int(h) for h in horizons)
    stride = hs[0] if len(hs) < 2 else hs[1] - hs[0]
    return HorizonSet(hs, stride, hs[-1])
