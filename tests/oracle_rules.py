"""Brute-force rule oracle over raw fixture rows.

Deliberately independent of the package under test: plain dict rows from
`oracle_bfs.read_rows` and a {address_hex: label} blacklist in, a suspicion
level and the set of fired dimension letters out. The rules are restated
here from the README "Suspicion levels" table and the thresholds of the rule
engine's docstring, on raw integer values and epoch seconds, never on the
rendered payload:

  a  >= 20 distinct transactions (hashes) inside one hour, or a successful
     transfer of a positive whole multiple of 1000 display units (native ETH
     has 18 decimals; a token of unknown decimals is shown in raw units, where
     the unit is 10^21)
  b  >= 10 distinct senders, and successful outgoing transfers reaching >= 2
     distinct receivers inside one hour
  c  a counterparty on the blacklist
  d  at least half of the transfers between 02:00 and 04:00 UTC
  level: two or more fired -> High; b or c alone -> Medium; a or d alone ->
  Low; none -> No Suspicion

"Inside one hour" includes both ends. Failed transfers count as activity
(bursts, senders, blacklist, night share) but move no value (a round number,
dispersal). An account's rows are every row it sends or receives, once each.

Only meaningful when every account has fewer rows than the tracer's
retention limit k, so the reasoner sees all of them; that holds for the
synthetic fixture.
"""

from fractions import Fraction

HOUR_S = 3600
NATIVE_DECIMALS = 18  # ETH; the synthetic fixture's only other token, USDT, has no known decimals
ROUND_DISPLAY_UNIT = 1000
ROUND_RAW_UNIT = 10**21


def read_blacklist(path):
    """`address,label` lines -> {address_hex: label}; '#' lines are comments."""
    labels = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                address, _, label = line.partition(",")
                labels[address.strip().lower()] = label.strip()
    return labels


def rows_of(rows, account):
    return [r for r in rows if account in (r["from"], r["to"])]


def _most_inside_an_hour(events):
    """Most distinct keys among (ts, key) events inside any closed one-hour window."""
    events = sorted(events)
    return max(
        (len({key for ts, key in events if start <= ts <= start + HOUR_S}) for start, _ in events),
        default=0,
    )


def _is_round(row):
    if row["value"] <= 0:
        return False
    if row["token"] == "":
        return Fraction(row["value"], 10**NATIVE_DECIMALS) % ROUND_DISPLAY_UNIT == 0
    return row["value"] % ROUND_RAW_UNIT == 0


def assess(account_rows, account, blacklist):
    """(level, fired letters) for one account from its raw rows."""
    if not account_rows:
        return "No Suspicion", set()
    ok = [r for r in account_rows if not r["failed"]]
    fired = set()
    burst = _most_inside_an_hour((r["ts"], r["hash"]) for r in account_rows)
    if burst >= 20 or any(_is_round(r) for r in ok):
        fired.add("a")
    senders = {r["from"] for r in account_rows if r["to"] == account and r["from"] != account}
    dispersal = _most_inside_an_hour(
        (r["ts"], r["to"]) for r in ok if r["from"] == account and r["to"] != account
    )
    if len(senders) >= 10 and dispersal >= 2:
        fired.add("b")
    counterparties = {r[side] for r in account_rows for side in ("from", "to")} - {account}
    if counterparties & set(blacklist):
        fired.add("c")
    night = [r for r in account_rows if 2 <= (r["ts"] % 86400) // HOUR_S < 4]
    if 2 * len(night) >= len(account_rows):
        fired.add("d")
    if len(fired) >= 2:
        level = "High"
    elif fired & {"b", "c"}:
        level = "Medium"
    elif fired:
        level = "Low"
    else:
        level = "No Suspicion"
    return level, fired
