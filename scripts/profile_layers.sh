#!/usr/bin/env bash
# profile_layers.sh — sort a CPU profile's flat time into simulator layers.
#
# Usage: scripts/profile_layers.sh BINARY PROFILE
#
# BINARY is the program that wrote PROFILE (for example cmd/experiments
# run with -cpuprofile). Every function's flat time from `go tool pprof
# -top` is charged to the first layer whose pattern matches its name, and
# the script prints each layer's time and share of all samples. The
# mapping below is the definition of the layers; a function no pattern
# names counts as "other". `make profile-layers` profiles
# `-run fig14 -parallel 2` and runs this script on it.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BINARY PROFILE" >&2
    exit 2
fi
bin=$1
prof=$2

go tool pprof -top -nodecount=1000000 -nodefraction=0 -unit=ms "$bin" "$prof" 2>/dev/null |
awk '
function layer(fn) {
    if (fn ~ /^(runtime|internal\/runtime|sync|syscall|internal\/poll)[.\/]/ || fn ~ /^runtime$/)
        return "runtime/GC"
    if (fn ~ /sim\.\(\*coreState\)\.(selectWarp|tryIssue|execute|replayIssue|wake|retireWarp|releaseBarrier|execBranch|placeWorkgroup|removeWorkgroup|statsFor|selectIntent|executeIntent)$/ ||
        fn ~ /sim\.\(\*warp\)\.(reconverge|guardMask)$/ ||
        fn ~ /sim\.\(\*GPU\)\.(stepSerial|stepParallel|nextEvent|dispatch|RunConcurrentCtx|deadlocked|resetOccupied|abortRun|abortUnfinished|acquireRun|releaseRuns)$/ ||
        fn ~ /sim\.\(\*(wakeTimes|coreWorkers)\)\./ || fn ~ /kernel\.Op\.Is(Memory|Branch|Store)$/)
        return "warp selection"
    if (fn ~ /sim\.\(\*coreState\)\.(execALU|execALUWarp|execALUWarpPlanned|execALULanes|execSuperblock|execSBFast|src|denseRow|operand|special)$/ ||
        fn ~ /sim\.(aluDense|aluScalar|execALU|affineOp|aluArity|fadd|fsub|fmul|fdiv|nanOperand|b2i)$/ || fn ~ /sim\.execALU\.func/ ||
        fn ~ /sim\.\(\*warp\)\.(at|row|materialize|dstRow|setAffine)$/ ||
        fn ~ /sim\.\(\*(val|srcPlan)\)\./ || fn ~ /sim\.\(\*coreState\)\.plan$/ ||
        fn ~ /kernel\.(B2F|F2B)$/ || fn ~ /^math\.(Float64frombits|Float64bits|Sqrt|Abs|Min|Max|min|max)$/)
        return "ALU/superblock"
    if (fn ~ /sim\.\(\*coreState\)\.(lowerSuperblock|memPlanFor)$/ ||
        fn ~ /sim\.(lowerSBInstr|lowerSet|superblockLens)$/ ||
        fn ~ /sim\.\(\*GPU\)\.(lower|superblocks)$/)
        return "lowering"
    if (fn ~ /sim\.\(\*coreState\)\.(memGen|memGenFast|memGenRef|memScanReg|memScanParam|affineReg|affineParam|classifyAndCoalesce|coalesceRef|anyUnmapped)$/ ||
        fn ~ /sim\.\(\*warp\)\.laneList$/ || fn ~ /sim\.affineSpan$/)
        return "address generation"
    if (fn ~ /sim\.\(\*coreState\)\.(checkTransaction|postViolation)$/ ||
        fn ~ /gpushield\/internal\/core\./)
        return "BCU check"
    if (fn ~ /sim\.\(\*GPU\)\.(memAccess|fetchRBT)$/ ||
        fn ~ /memsys\.\(\*(Cache|TLB|DRAM|lruSets)\)\./)
        return "cache/TLB/DRAM timing"
    if (fn ~ /sim\.\(\*coreState\)\.(execMem|memCommit|execShared|batchLoad|batchStore|rangeMapped)$/ ||
        fn ~ /sim\.(loadValue|storeValue|widen|narrow)$/ ||
        fn ~ /memsys\.\(\*Backing\)\./ || fn ~ /memsys\.readOddWidth/ ||
        fn ~ /driver\.\(\*Device\)\.(Mapped|MappedRange)$/ || fn ~ /driver\.(\(\*)?pageMap/ ||
        fn ~ /encoding\/binary\./)
        return "functional memory"
    return "other"
}
/Total samples = / {
    t = $0
    sub(/.*Total samples = /, "", t)
    sub(/ms.*/, "", t)
    total = t + 0
}
$1 ~ /ms$/ && $2 ~ /%$/ {
    flat = $1
    sub(/ms$/, "", flat)
    fn = $6
    by[layer(fn)] += flat + 0
}
END {
    if (total == 0) {
        print "profile_layers: no samples found" > "/dev/stderr"
        exit 1
    }
    n = split("warp selection|ALU/superblock|lowering|address generation|BCU check|cache/TLB/DRAM timing|functional memory|runtime/GC|other", order, "|")
    printf "%-24s %10s %7s\n", "layer", "flat ms", "share"
    for (i = 1; i <= n; i++) {
        printf "%-24s %10.0f %6.1f%%\n", order[i], by[order[i]], 100 * by[order[i]] / total
    }
    printf "%-24s %10.0f %6.1f%%\n", "total", total, 100
}'
