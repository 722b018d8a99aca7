"""The six workloads, in the order the tables print them."""

from benchmarks.e2e.workloads.call_storm import CallStorm
from benchmarks.e2e.workloads.listing1_krylov import Listing1Krylov
from benchmarks.e2e.workloads.lockstep_ranks import LockstepRanks
from benchmarks.e2e.workloads.precond_setup import PrecondSetup
from benchmarks.e2e.workloads.service_stream import ServiceStream
from benchmarks.e2e.workloads.spmv_formats import SpmvFormats

WORKLOADS = {
    workload.name: workload
    for workload in (
        Listing1Krylov(),
        PrecondSetup(),
        SpmvFormats(),
        CallStorm(),
        LockstepRanks(),
        ServiceStream(),
    )
}
