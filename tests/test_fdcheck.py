import pytest

from smxreg.core import InvalidInputError
from smxreg.fdcheck import CHECK_SIZES, gradient_check_suite


class TestGradientCheckSuite:
    @pytest.mark.parametrize("instances", [0, -3])
    def test_no_instances_is_refused(self, instances):
        # an empty suite would report "passed" without checking anything
        with pytest.raises(InvalidInputError, match="instances must be >= 1"):
            gradient_check_suite(0, CHECK_SIZES, instances)

    @pytest.mark.parametrize("key,low", [("C", 2), ("D", 2), ("N", 1)])
    def test_sizes_below_the_draws_are_refused(self, key, low):
        # the draws take C and D from [2, C] and [2, D], N from [1, N]; a
        # smaller bound must name its key rather than fail inside numpy
        sizes = dict(CHECK_SIZES, **{key: low - 1})
        with pytest.raises(InvalidInputError,
                           match=rf"^sizes {key} must be >= {low}, got {low - 1}$"):
            gradient_check_suite(0, sizes, 1)

    def test_smallest_sizes_are_checked(self):
        # the bounds are inclusive: C = D = 2, N = 1 is a checkable instance
        report = gradient_check_suite(0, {"C": 2, "D": 2, "N": 1}, 2)
        assert report["instances"] == 2
        assert report["passed"]
