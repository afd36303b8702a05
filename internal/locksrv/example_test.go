package locksrv_test

import (
	"fmt"
	"net"

	"granulock/internal/lockmgr"
	"granulock/internal/locksrv"
)

// Example starts a lock server, claims a granule set from a client
// session and inspects the server-side counters.
func Example() {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := locksrv.NewServer(lis, nil)
	go srv.Serve()
	defer srv.Close()

	c, err := locksrv.DialV2(lis.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c.Close()

	if err := c.AcquireAll(1, []lockmgr.Request{
		{Granule: 42, Mode: lockmgr.ModeExclusive},
		{Granule: 43, Mode: lockmgr.ModeShared},
	}); err != nil {
		panic(err)
	}
	stats, err := c.Stats()
	if err != nil {
		panic(err)
	}
	fmt.Println("grants:", stats.Grants, "blocks:", stats.Blocks)
	if err := c.ReleaseAll(1); err != nil {
		panic(err)
	}
	// Output:
	// grants: 1 blocks: 0
}
