"""numpy's seeded normal stream, on the standard library.

``standard_normal(seed, count)`` equals
``numpy.random.default_rng(seed).standard_normal(count)`` bit for bit, so a
seed keeps drawing the same numbers without loading numpy.  Three parts, as
numpy writes them:

* ``SeedSequence(seed).generate_state(4, uint64)``: the seed's 32-bit words
  hashed into a pool of 4 and mixed (O'Neill's seed_seq, numpy's constants);
* PCG64: a 128-bit LCG whose output is the XSL-RR permutation of its state
  (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
  Algorithms for Random Number Generation", 2014);
* numpy's 256-box ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000),
  with its tail and wedge branches.

The ziggurat's abscissae cannot be recomputed from its r and v: a recursion
in double lands up to 95 ulp off numpy's table.  So ``_X`` holds them as
numpy's ``wi_double[i] * 2^52``, read back from numpy's own draws (a
fast-path draw is exactly ``rabs * wi[idx]``; tests/test_normal.py rebuilds
the table that way), and the box edges ``ki`` and heights ``fi`` are derived
from it in double.
"""

from __future__ import annotations

import math
from array import array

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# x_i = wi_double[i] * 2^52: x_0 = v / f(r) is the base box, x_1 .. x_255 = r the box edges
_X = (
    3.910757959524912, 0.21524189598488003, 0.2861745917920715, 0.33573751921442435,
    0.3751213328783798, 0.40838913461199033, 0.4375184022078708, 0.4636343367908815,
    0.4874439661392353, 0.509423329602091, 0.5299097206615574, 0.5491517023271645,
    0.5673382570538182, 0.5846167661063788, 0.6011046177559921, 0.6168969900077509,
    0.6320722363860606, 0.6466957148949931, 0.6608225742444191, 0.6744998228372932,
    0.6877678927957878, 0.7006618411068143, 0.7132122851909752, 0.7254461409099988,
    0.7373872114342949, 0.7490566620178146, 0.7604734064301074, 0.7716544242245675,
    0.7826150233072324, 0.7933690588406226, 0.8039291169899705, 0.8143066701352146,
    0.8245122087522915, 0.8345553540863815, 0.8444449549091533, 0.8541891710081632,
    0.8637955455533082, 0.87327106808886, 0.882622229585165, 0.891855070732941,
    0.9009752244612214, 0.9099879534967181, 0.9188981836495902, 0.9277105334019996,
    0.9364293402865748, 0.945058684468165, 0.9536024098810856, 0.9620641432230401,
    0.970447311064224, 0.9787551552942242, 0.986990747099062, 0.9951569996350904,
    1.0032566795446725, 1.011292417439995, 1.0192667174654835, 1.027181966035645,
    1.03504043983344, 1.0428443131441483, 1.0505956645909291, 1.0582964833306743,
    1.0659486747621219, 1.0735540657924356, 1.0811144097034033, 1.0886313906539793,
    1.0961066278520208, 1.103541679424639, 1.110938046013575, 1.1182971741193444,
    1.1256204592155326, 1.1329092486525332, 1.1401648443681507, 1.1473885054208484,
    1.1545814503599272, 1.161744859445611, 1.1688798767308328, 1.1759876120154515,
    1.1830691426826863, 1.1901255154266914, 1.1971577478794408, 1.2041668301443809,
    1.2111537262436987, 1.218119375485481, 1.2250646937565302, 1.2319905747461355,
    1.2388978911056867, 1.2457874955486268, 1.2526602218948968, 1.2595168860637138,
    1.266358287018229, 1.273185207665356, 1.2799984157138176, 1.2867986644932434,
    1.2935866937369476, 1.300363230330837, 1.307128989030731, 1.3138846731502203,
    1.3206309752210559, 1.3273685776279256, 1.3340981532193599, 1.3408203658964037,
    1.347535871180587, 1.3542453167626347, 1.3609493430332826, 1.3676485835974759,
    1.374343665773166, 1.381035211075855, 1.3877238356899757, 1.3944101509281406,
    1.4010947636792506, 1.4077782768463984, 1.4144612897754707, 1.4211443986753085,
    1.4278281970302555, 1.4345132760058918, 1.4412002248487237, 1.4478896312805758,
    1.45458208188841, 1.4612781625102753, 1.4679784586180793, 1.4746835556978553,
    1.481394039628187, 1.4881104970574472, 1.4948335157804935, 1.5015636851154637,
    1.5083015962813113, 1.5150478427767144, 1.5218030207609978, 1.528567729437712,
    1.5353425714415139, 1.5421281532290017, 1.5489250854741732, 1.5557339834691761,
    1.5625554675310445, 1.5693901634151233, 1.576238702735906, 1.583101723396029,
    1.5899798700241905, 1.5968737944227878, 1.6037841560260941, 1.6107116223698297,
    1.617656869573015, 1.624620582833034, 1.6316034569348727, 1.638606196775547,
    1.6456295179047817, 1.6526741470830553, 1.659740822858182, 1.666830296161665,
    1.6739433309261247, 1.6810807047251735, 1.688243209437195, 1.6954316519345614,
    1.702646854799923, 1.7098896570713016, 1.7171609150178229, 1.7244615029480448,
    1.7317923140529632, 1.7391542612859117, 1.7465482782817225, 1.7539753203176716,
    1.7614363653189102, 1.7689324149112684, 1.7764644955245228, 1.7840336595494415,
    1.7916409865521625, 1.7992875845497203, 1.8069745913508208, 1.8147031759662826,
    1.8224745400938858, 1.830289919682757, 1.8381505865828067, 1.8460578502851857,
    1.8540130597602023, 1.8620176053996746, 1.8700729210712674, 1.8781804862929965,
    1.8863418285367834, 1.8945585256707052, 1.9028322085504297, 1.9111645637712535,
    1.9195573365931882, 1.9280123340526658, 1.9365314282756947, 1.9451165600086784,
    1.9537697423846467, 1.962493064944363, 1.9712886979336592, 1.9801588969004766,
    1.989106007617438, 1.9981324713584196, 2.0072408305605287, 2.016433734906204,
    2.025713947863854, 2.035084353729619, 2.0445479652175313, 2.054107931650652,
    2.063767547811732, 2.0735302635187427, 2.083399693998304, 2.0933796311387916,
    2.1034740557148766, 2.1136871506866526, 2.1240233156895227, 2.134487182846016,
    2.145083634047888, 2.1558178198767366, 2.1666951803543077, 2.1777214677402923,
    2.1889027716263603, 2.200245546611276, 2.2117566428841604, 2.22344334009251,
    2.235313384929921, 2.247375032947389, 2.259637095173787, 2.2721089902283813,
    2.284800802724492, 2.2977233489028634, 2.310888250601372, 2.3243080188711325,
    2.3379961487965284, 2.3519672273791445, 2.366237056717291, 2.3808227951720857,
    2.3957431197819274, 2.4110184139011195, 2.4266709849371466, 2.442725318200364,
    2.459208374334705, 2.476149939670523, 2.4935830412710467, 2.511544441626694,
    2.530075232159854, 2.549221550324783, 2.5690354526818435, 2.589575986708286,
    2.610910518488823, 2.6331163936315822, 2.656283037576743, 2.6805146432857447,
    2.705933656123062, 2.7326853590440114, 2.7609440052799865, 2.7909211740019275,
    2.8228773968264433, 2.857138730873225, 2.8941210536134125, 2.934366867208888,
    2.9786032798818436, 3.027837791769594, 3.0835261320021434, 3.147889289518001,
    3.224575052047802, 3.320244733839826, 3.4492782985614316, 3.654152885361009,
)
_R = _X[255]  # ziggurat_nor_r, where the tail starts
_INV_R = 0.27366123732975828  # ziggurat_nor_inv_r
_U = 1.0 / 9007199254740992.0  # next_double is (word >> 11) * 2^-53, in [0, 1)
_WI = tuple(math.ldexp(x, -52) for x in _X)
# a draw of box i with rabs < ki[i] is inside the box below the curve; box 1, at the peak, has none
_KI = (int(_X[255] / _X[0] * 2.0**52), 0) + tuple(int(_X[i - 1] / _X[i] * 2.0**52) for i in range(2, 256))
_FI = (1.0,) + tuple(math.exp(-0.5 * x * x) for x in _X[1:])


def _state(seed: int):
    """SeedSequence(seed).generate_state(4, uint64): four 64-bit words from the seed's 32-bit words."""
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _raw(seed: int):
    """PCG64(seed).random_raw(): the 64-bit outputs of numpy's PCG64, one per step of its LCG."""
    high, low, inc_high, inc_low = _state(seed)
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _M128
    state = ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _M128  # srandom: step from 0, add the seed, step
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        word = (state >> 64 ^ state) & _M64
        rot = state >> 122
        yield (word >> rot | word << (64 - rot)) & _M64


def standard_normal(seed: int, count: int) -> array:
    """numpy.random.default_rng(seed).standard_normal(count), as an array('d')."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    word = _raw(seed).__next__
    wi, ki, fi, exp, log1p = _WI, _KI, _FI, math.exp, math.log1p
    out = array("d")
    for _ in range(count):
        while True:
            r = word()
            idx = r & 0xFF
            rabs = r >> 9 & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if r & 0x100:
                x = -x
            if rabs < ki[idx]:
                break
            if idx == 0:  # the tail beyond r, from exponentials -log(1 - u), which never take log(0)
                while True:
                    xx = -_INV_R * log1p(-((word() >> 11) * _U))
                    yy = -log1p(-((word() >> 11) * _U))
                    if yy + yy > xx * xx:
                        break
                x = -(_R + xx) if rabs >> 8 & 0x1 else _R + xx
                break
            if (fi[idx - 1] - fi[idx]) * ((word() >> 11) * _U) + fi[idx] < exp(-0.5 * x * x):  # the wedge
                break
        out.append(x)
    return out
