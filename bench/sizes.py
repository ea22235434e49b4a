"""Prints the size table of README.md: per instance, the double-smash
dimension, its nonzero structure constants, and two density ratios.

    PYTHONPATH=src python3 bench/sizes.py
"""

import workloads

HEADER = ("| workload | instance | dim B#KG#KG* | nonzero structure constants "
          "| nonzeros / dim^2 | phi nonzeros / dense flatten entries |")


def sizes(spec):
    from weakhopf.duality import VerificationContext
    from weakhopf.instances import builtin_instance, parse_instance
    inst = (builtin_instance(spec.builtin) if spec.builtin
            else parse_instance(workloads.to_doc(spec)))
    ctx = VerificationContext(inst)
    dim = ctx.dsm.dim
    nnz = sum(len(prod) for prod in ctx.dsm.mul.values())
    phi_nnz = sum(len(img) for col in ctx.phi.columns.values() for img in col.values())
    dense = len(ctx.phi.codomain_basis) ** 2 * dim
    return dim, nnz, nnz / dim**2, phi_nnz, dense


def main():
    print(HEADER)
    print("|---|---|---|---|---|---|")
    for name in workloads.WORKLOADS:
        for spec in sorted(workloads.workload(name, 1), key=lambda s: s.name):
            if spec.fault == "composition-missing":
                print(f"| {name} | {spec.name} | - | - | - | - (raises KeyError) |")
                continue
            dim, nnz, ratio, phi_nnz, dense = sizes(spec)
            print(f"| {name} | {spec.name} | {dim} | {nnz} | {ratio:.4f} "
                  f"| {phi_nnz} / {dense} = {phi_nnz / dense:.2e} |")


if __name__ == "__main__":
    main()
