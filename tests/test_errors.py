import pickle

from kcone.errors import KConeError, LeftCone


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_survives_pickle():
    # a worker process hands its exception to the parent through pickle
    for cls in [KConeError, *_subclasses(KConeError)]:
        exc = cls(0.5, "msg") if cls is LeftCone else cls("msg")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == "msg"
        if cls is LeftCone:
            assert back.t == 0.5
    back = pickle.loads(pickle.dumps(LeftCone(0.25)))
    assert back.t == 0.25 and str(back) == str(LeftCone(0.25))
