module github.com/demon-mining/demon

go 1.24

// The go line above names the toolchain and the language; the runtime
// defaults stay the ones every baseline in BENCHMARK.json was measured under.
// Left to follow the go line they flip thirteen settings in every binary,
// two of them on the served path: multipathtcp=2 makes each listener an
// MPTCP socket and asynctimerchan=0 changes the timer channels. A PR that
// claims no gain must not move them; the `benchmark` PR that re-measures the
// baseline drops this line.
godebug default=go1.22
