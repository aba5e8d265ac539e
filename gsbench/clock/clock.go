// Package clock records when the benchmark process started running Go code.
//
// Its import path sorts before every gpushield package, and it imports only
// the time package, so Go's initialization order (sorted by import path
// since Go 1.21) runs this package's variable initializer before the
// program's own package-level set-up. setup_s therefore includes that
// set-up.
package clock

import "time"

// Start is the time the process began initializing packages.
var Start = time.Now()
