import pytest

from combnet.errors import ConfigError
from combnet.verify import (backend_e2e_suite, bn_fold_suite, conv_oracle_suite,
                            loss_gradient_suite)


@pytest.mark.parametrize("suite, count_name", [
    (conv_oracle_suite, "cases"),
    (bn_fold_suite, "cases"),
    (backend_e2e_suite, "pairs"),
    (loss_gradient_suite, "instances"),
])
def test_suite_count_below_one_is_a_config_error(suite, count_name):
    # a suite over no cases would report PASS with max_dev=0
    for count in (0, -1):
        with pytest.raises(ConfigError, match=f"{count_name} must be at least 1, got {count}"):
            suite(1, count)


@pytest.mark.parametrize("seed", [3, 2024])
def test_every_conv_oracle_run_checks_the_comb(seed, monkeypatch):
    # the cases alternate stride 1 (the comb) and stride 2 (the packed conv)
    # by position: a one-case run at seed 3 used to draw stride 2 and report
    # the comb as passed over 0 cases
    from combnet import verify
    comb, ran = verify.comb_dilated_conv, []
    monkeypatch.setattr(verify, "comb_dilated_conv",
                        lambda *args: ran.append(args[3].stride) or comb(*args))
    for cases in (1, 2, 3, 4):
        ran.clear()
        packed_line, comb_line = conv_oracle_suite(seed, cases)
        assert packed_line.cases == cases
        assert comb_line.cases == len(ran) == (cases + 1) // 2
        assert set(ran) == {1} and comb_line.passed
