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
