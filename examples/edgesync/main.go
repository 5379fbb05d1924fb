// Device-edge-cloud sync example (paper §IV-B): phones, a watch and a home
// router share data through direct device-to-device sync. Updates converge
// with no loss and no duplication, subscriptions fire on matching keys,
// and the P2P mesh beats the via-cloud path on (simulated) latency.
package main

import (
	"fmt"

	"repro/internal/dsync"
)

func main() {
	phone := dsync.NewNode("phone", dsync.Device, nil)
	watch := dsync.NewNode("watch", dsync.Device, nil)
	tv := dsync.NewNode("tv", dsync.Device, nil)
	router := dsync.NewNode("router", dsync.Edge, nil)

	// The TV wants to know about media handoffs (query-based subscription).
	events := tv.Subscribe(dsync.PrefixPred("media/"), 16)

	phone.Put("media/now_playing", []byte("documentary.mp4@00:14:05"))
	phone.Put("photos/1", []byte("<jpeg bytes>"))
	watch.Put("health/heart_rate", []byte("62"))

	// Ad-hoc sync over direct radio: phone<->router, watch<->router,
	// tv<->router (leader-star around the home router).
	direct, internet := dsync.DefaultLinks()
	res := dsync.Converge([]*dsync.Node{phone, watch, tv}, router, dsync.LeaderStar, direct, 0)
	fmt.Printf("home mesh converged in %d rounds, %d messages, %v simulated time\n",
		res.Rounds, res.Messages, res.SimTime)

	if v, ok := tv.Get("media/now_playing"); ok {
		fmt.Printf("tv can resume playback: %s\n", v)
	}
	select {
	case e := <-events:
		fmt.Printf("tv subscription fired: %s -> %s (remote=%v)\n", e.Entry.Key, e.Entry.Value, e.Remote)
	default:
		fmt.Println("no event delivered (unexpected)")
	}

	// Compare with the conventional MBaaS route through the cloud.
	p2, w2, t2 := dsync.NewNode("phone", dsync.Device, nil), dsync.NewNode("watch", dsync.Device, nil), dsync.NewNode("tv", dsync.Device, nil)
	p2.Put("media/now_playing", []byte("documentary.mp4@00:14:05"))
	cloud := dsync.NewNode("cloud", dsync.Cloud, nil)
	cres := dsync.Converge([]*dsync.Node{p2, w2, t2}, cloud, dsync.ViaCloud, internet, 0)
	fmt.Printf("\nvia-cloud converged in %v simulated time (direct radio was %v — the paper's ~10x)\n",
		cres.SimTime, res.SimTime)

	// Conflict: phone and watch both update the same key while offline;
	// last writer wins deterministically after the next sync.
	phone.Put("settings/volume", []byte("40"))
	watch.Put("settings/volume", []byte("65"))
	if _, err := dsync.SyncPair(phone, watch, direct); err != nil {
		fmt.Println("sync failed:", err)
		return
	}
	pv, _ := phone.Get("settings/volume")
	wv, _ := watch.Get("settings/volume")
	fmt.Printf("\nconflict resolved identically on both: phone=%s watch=%s\n", pv, wv)
}
