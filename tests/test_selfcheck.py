import pytest

from kernmetric import selfcheck


@pytest.mark.parametrize("check", [fn for _, fn in selfcheck.CHECKS],
                         ids=[name for name, _ in selfcheck.CHECKS])
def test_selfcheck_invariant(check):
    assert check()
