import hawkesfeed


def test_every_export_resolves_once():
    names = hawkesfeed.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(hawkesfeed, n)]
    assert missing == []
