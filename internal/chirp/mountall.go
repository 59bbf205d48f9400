package chirp

import (
	"fmt"

	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/vclock"
)

// MountAll discovers every server known to a catalog and mounts each
// inside the box under /chirp/<name> (and /chirp/<addr>), dialing one
// authenticated connection per server. This is how Parrot lets a boxed
// application browse the whole storage fabric as a single namespace:
//
//	ls /chirp/                 (conceptually)
//	cat /chirp/storage.nowhere.edu/public/data
//
// Catalog entries sharing a name are treated as replicas of one
// export: /chirp/<name> is served by a FailoverDriver that fails reads
// over to a live replica when the primary is down and degrades writes
// with ErrDegraded. /chirp/<addr> always addresses one specific
// server. Failover decisions land in the box's audit trail.
//
// It returns the clients so the caller can close them when the box is
// done.
func MountAll(box *core.Box, catalogAddr string, auths []auth.Authenticator, model vclock.CostModel) ([]*Client, error) {
	entries, err := QueryCatalog(catalogAddr)
	if err != nil {
		return nil, fmt.Errorf("chirp: querying catalog %s: %w", catalogAddr, err)
	}
	var clients []*Client
	groups := make(map[string][]*Driver) // name -> replica drivers, catalog order
	var names []string
	for _, e := range entries {
		cl, err := Dial(e.Addr, auths)
		if err != nil {
			// A server may have gone away since its last heartbeat;
			// skip it rather than failing the whole mount.
			continue
		}
		clients = append(clients, cl)
		d := NewDriver(cl, model)
		box.Mount("/chirp/"+e.Addr, d)
		if e.Name != "" && e.Name != e.Addr {
			if _, seen := groups[e.Name]; !seen {
				names = append(names, e.Name)
			}
			groups[e.Name] = append(groups[e.Name], d)
		}
	}
	for _, name := range names {
		replicas := groups[name]
		if len(replicas) == 1 {
			box.Mount("/chirp/"+name, replicas[0])
			continue
		}
		box.Mount("/chirp/"+name, NewFailoverDriver(replicas, box.Note))
	}
	return clients, nil
}

// CloseAll closes a set of clients, ignoring individual errors.
func CloseAll(clients []*Client) {
	for _, cl := range clients {
		cl.Close()
	}
}
