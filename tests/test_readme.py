import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_doctest():
    failures, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failures == 0
