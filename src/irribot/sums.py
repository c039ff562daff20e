"""`ltr_sum`: a float sum added left to right, which the pinned output digests
rest on. From Python 3.12 the builtin `sum()` of floats compensates rounding
(Neumaier); there `ltr_sum` is a plain fold, which adds as 3.11's `sum()` does,
signed zeros included. On 3.10 and 3.11 it is the builtin itself."""

import functools
import operator
import sys

if sys.version_info >= (3, 12):
    def ltr_sum(values):
        return functools.reduce(operator.add, values, 0)
else:
    ltr_sum = sum
