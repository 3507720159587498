//go:build !unix

package main

import "time"

// cpuTime is not measured on platforms without getrusage; proc.cpu_s and
// proc.cpu_util read 0 there.
func cpuTime() time.Duration { return 0 }
