"""SIM015 through a lazy package: the freelist API imported from
``repro.net`` (whose ``__init__`` re-exports it only under
``TYPE_CHECKING``) instead of its home module ``repro.net.packet``."""

from repro.net import make_data, release


def double_release_branch(now, flag):
    pkt = make_data(1, 2, 3, 0, 1000, True, 0, now)
    if flag:
        release(pkt)
    release(pkt)  # expect: SIM015


def release_once_is_clean(now):
    pkt = make_data(1, 2, 3, 1, 1000, True, 0, now)
    release(pkt)  # near miss: one owner, one release
