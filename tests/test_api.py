import survmrl


def test_every_exported_name_resolves():
    missing = [name for name in survmrl.__all__ if not hasattr(survmrl, name)]
    assert missing == []
    assert len(set(survmrl.__all__)) == len(survmrl.__all__)
