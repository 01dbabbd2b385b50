package ashe

import (
	"encoding/binary"
	"fmt"

	"seabed/internal/idlist"
)

// Marshal serializes the ciphertext for transfer (worker → driver → client)
// using the given identifier-list codec. The wire format is the 8-byte body
// followed by the encoded list.
func (ct Ciphertext) Marshal(codec idlist.Codec) ([]byte, error) {
	ids, err := codec.Encode(ct.IDs)
	if err != nil {
		return nil, fmt.Errorf("ashe: marshal: %v", err)
	}
	buf := make([]byte, 8, 8+len(ids))
	binary.LittleEndian.PutUint64(buf, ct.Body)
	return append(buf, ids...), nil
}
