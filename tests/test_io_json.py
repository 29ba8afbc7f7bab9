import json
import random

from skeletron.io_json import function_from_json, function_to_json
from skeletron.randfix import rand_rational_function


def test_function_json_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        f = rand_rational_function(rng)
        data = json.loads(json.dumps(function_to_json(f)))
        assert function_from_json(data) == f
