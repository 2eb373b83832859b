"""Host-speed reading: seconds to import a fixed set of standard-library modules.

The host's speed drifts by tens of percent within minutes, and the timings
taken in one window move together.  run.py starts this script in a fresh
interpreter before and after every sample and scales the sample's times by
the mean of the two readings.  It imports only the standard library, so no
change to the package can move it.  Prints the reading in seconds.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402,F401
import asyncio  # noqa: E402,F401
import decimal  # noqa: E402,F401
import email.mime.multipart  # noqa: E402,F401
import fractions  # noqa: E402,F401
import http.client  # noqa: E402,F401
import logging  # noqa: E402,F401
import statistics  # noqa: E402,F401
import unittest  # noqa: E402,F401
import xml.dom.minidom  # noqa: E402,F401

print(perf_counter() - START)
