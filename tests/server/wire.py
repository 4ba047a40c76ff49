"""Reading raw HTTP responses back in the server tests."""

from typing import Dict, Tuple


def parse_response_bytes(raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
    """Split a rendered response back into (status, headers, body)."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body
