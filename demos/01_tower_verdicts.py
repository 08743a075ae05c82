"""Walk through the analyzer on three contrasting fields.

Run: python demos/01_tower_verdicts.py
"""

from twotower import QuadFieldSpec, analyze, base_field_certificate, replay_certificate


def show(label, values):
    k = QuadFieldSpec.from_disc_values(values)
    report = analyze(k)
    print(f"== {label}: K = Q(sqrt({k.discriminant})), discs {list(k.values())}")
    print(f"   d2 = {report.d2}, d4 = {report.d4}, catalog case: {report.case.tag}")
    print(f"   verdict: {report.verdict}")
    if report.certificate:
        cert = report.certificate
        print(f"   certificate: {cert.criterion} with F = {list(cert.base_field_discs)}")
        if cert.cl2_order:
            print(f"   |Cl_2(F)| = {cert.cl2_order}; witnesses:")
            for w in cert.witnesses:
                print(f"     p = {w.prime}: {w.split_type}, order 2-part {w.order_2part}, "
                      f"{w.count_in_l} primes in L")
        check = cert.threshold_check
        print(f"   exact check: {check.lhs} >= {check.required} at unit 2-rank {check.unit_2rank}")
        print(f"   replays from scratch: {replay_certificate(cert, k)}")
    else:
        print("   nearest misses:")
        for d in report.diagnostics[:4]:
            print(f"     {d.criterion}: {d.achieved} vs {d.required} needed ({d.detail})")
    print()


# Six ramified primes: the 2-rank alone settles it.
show("Golod-Shafarevich directly", [-3, -7, -11, -19, -23, +29])

# The classical three-prime example: a real base field with |Cl_2| = 16
# and one inert prime certify the infinite tower.
show("positive-pair base field", [-11, +5, +461])

# The same certificate from one named base field: F = Q(sqrt(5 * 461)) is
# a positive pair by the signs of its discs, so the pos-pair criteria run.
schmithals = QuadFieldSpec.from_disc_values([-11, +5, +461])
cert = base_field_certificate(schmithals, QuadFieldSpec.from_disc_values([5, 461]))
print(f"== base_field_certificate on F = (5, 461): {cert.criterion}, "
      f"|Cl_2(F)| = {cert.cl2_order}")
assert cert == analyze(schmithals).certificate
print()

# Five ramified primes, 4-rank 0, open matrix 49: every route misses,
# including the famous 7-vs-8 near miss from F = Q(sqrt(145)).
show("open case", [-7, -3, -8, +29, +5])
