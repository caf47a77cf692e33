package main

import "fmt"

// ops counts the operations a workload attempted and the ones that failed.
// An operation is a unit of engine work, a checkpoint or a resume, an HTTP
// request, a subscription, or one correctness check; failed_share and the
// driver's attempted/failed pair are both read off this one counter.
type ops struct {
	attempted int
	failed    int
	failures  []string
}

// did records n operations that succeeded.
func (o *ops) did(n int) { o.attempted += n }

// check records one operation; it failed unless ok.
func (o *ops) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// try records one operation that failed if err is non-nil.
func (o *ops) try(err error, what string) bool {
	return o.check(err == nil, "%s: %v", what, err)
}

// share is failed ÷ attempted.
func (o *ops) share() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}
