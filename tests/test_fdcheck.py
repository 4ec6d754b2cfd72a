import pytest

from smxreg.core import InvalidInputError
from smxreg.fdcheck import gradient_check_suite


class TestGradientCheckSuite:
    @pytest.mark.parametrize("instances", [0, -3])
    def test_no_instances_is_refused(self, instances):
        # an empty suite would report "passed" without checking anything
        with pytest.raises(InvalidInputError, match="instances must be >= 1"):
            gradient_check_suite(0, instances)
