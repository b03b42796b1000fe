"""The standard normal CDF and its inverse, without scipy.

`ndtr` and `ndtri` are ports of Cephes ndtr.c and ndtri.c (S. L. Moshier,
Methods and Programs for Mathematical Functions, 1989; BSD-3, as
distributed with SciPy). They return what `scipy.special.ndtr` and
`scipy.special.ndtri` return, bit for bit: each element goes through the
C code's steps in the same order with Python floats, whose arithmetic is the
same IEEE double arithmetic, and `math.exp` and `math.log` are the same libm
functions (numpy's vectorised exp and log differ from libm's in the last bit).
"""

from __future__ import annotations

import math

import numpy as np

# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, exp(-x^2) R(x) / S(x) for x >= 8
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # exp underflows below -_MAXLOG

# ndtri: a rational function of y - 0.5 for exp(-2) < y < 1 - exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# ... and of 1/x in the tails, x = sqrt(-2 log y): P1/Q1 for x < 8, P2/Q2 beyond
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT1_2 = 7.07106781186547524401E-1


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] x^N + ... + coef[N], by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: the leading coefficient is 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:  # 0.5 + 0.5 erf(x)
        x2 = x * x
        return 0.5 + 0.5 * (x * _polevl(x2, _T) / _p1evl(x2, _U))
    # 0.5 erfc(z), reflected for x > 0
    if z < 1.0:
        z2 = z * z
        erfc = 1.0 - z * _polevl(z2, _T) / _p1evl(z2, _U)
    elif -z * z < -_MAXLOG:
        erfc = 0.0
    elif z < 8.0:
        erfc = math.exp(-z * z) * _polevl(z, _P) / _p1evl(z, _Q)
    else:
        erfc = math.exp(-z * z) * _polevl(z, _R) / _p1evl(z, _S)
    return 1.0 - 0.5 * erfc if x > 0 else 0.5 * erfc


def _ndtri(y0: float) -> float:
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    return x0 - x1 if upper else x1 - x0


def _elementwise(f, x):
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(f, x.ravel().tolist()), dtype=float, count=x.size)
    return out.reshape(x.shape)[()]  # a 0-d input gives a numpy scalar, as scipy does


def ndtr(a):
    """Phi(a), the standard normal CDF, of a scalar or element by element."""
    return _elementwise(_ndtr, a)


def ndtri(p):
    """Phi^-1(p), the standard normal quantile, of a scalar or element by
    element: -inf at 0, inf at 1 and NaN outside [0, 1]."""
    return _elementwise(_ndtri, p)
